package quantum

import (
	"testing"
	"testing/quick"
)

var allPaulis = []Pauli{I, X, Z, Y}

func TestMulTable(t *testing.T) {
	tests := []struct {
		a, b, want Pauli
	}{
		{I, I, I}, {I, X, X}, {I, Z, Z}, {I, Y, Y},
		{X, X, I}, {Z, Z, I}, {Y, Y, I},
		{X, Z, Y}, {Z, X, Y},
		{X, Y, Z}, {Y, X, Z},
		{Z, Y, X}, {Y, Z, X},
	}
	for _, tt := range tests {
		if got := tt.a.Mul(tt.b); got != tt.want {
			t.Errorf("%v.Mul(%v) = %v, want %v", tt.a, tt.b, got, tt.want)
		}
	}
}

func TestMulGroupProperties(t *testing.T) {
	// Self-inverse, commutative up to phase, associative.
	for _, a := range allPaulis {
		if a.Mul(a) != I {
			t.Errorf("%v is not self-inverse", a)
		}
		for _, b := range allPaulis {
			if a.Mul(b) != b.Mul(a) {
				t.Errorf("Mul not symmetric for %v, %v", a, b)
			}
			for _, c := range allPaulis {
				if a.Mul(b).Mul(c) != a.Mul(b.Mul(c)) {
					t.Errorf("Mul not associative for %v, %v, %v", a, b, c)
				}
			}
		}
	}
}

func TestCommutes(t *testing.T) {
	// I commutes with everything; distinct non-identity Paulis anticommute.
	for _, p := range allPaulis {
		if !I.Commutes(p) || !p.Commutes(I) {
			t.Errorf("identity should commute with %v", p)
		}
		if !p.Commutes(p) {
			t.Errorf("%v should commute with itself", p)
		}
	}
	anti := [][2]Pauli{{X, Z}, {X, Y}, {Z, Y}}
	for _, pair := range anti {
		if pair[0].Commutes(pair[1]) || pair[1].Commutes(pair[0]) {
			t.Errorf("%v and %v should anticommute", pair[0], pair[1])
		}
	}
}

func TestComponents(t *testing.T) {
	tests := []struct {
		p          Pauli
		hasX, hasZ bool
	}{
		{I, false, false},
		{X, true, false},
		{Z, false, true},
		{Y, true, true},
	}
	for _, tt := range tests {
		if tt.p.HasX() != tt.hasX || tt.p.HasZ() != tt.hasZ {
			t.Errorf("%v: HasX=%v HasZ=%v, want %v %v",
				tt.p, tt.p.HasX(), tt.p.HasZ(), tt.hasX, tt.hasZ)
		}
	}
}

func TestStringAndValid(t *testing.T) {
	want := map[Pauli]string{I: "I", X: "X", Z: "Z", Y: "Y"}
	for p, s := range want {
		if p.String() != s {
			t.Errorf("String(%d) = %q, want %q", uint8(p), p.String(), s)
		}
		if !p.Valid() {
			t.Errorf("%v should be valid", p)
		}
	}
	if Pauli(0).Valid() || Pauli(5).Valid() {
		t.Error("out-of-range Pauli values should be invalid")
	}
}

func TestInvalidPauliPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("using an invalid Pauli should panic")
		}
	}()
	Pauli(0).Mul(X)
}

func TestFrameBasics(t *testing.T) {
	f := NewFrame(4)
	if f.Weight() != 0 {
		t.Fatalf("new frame weight = %d, want 0", f.Weight())
	}
	f.Apply(1, X)
	f.Apply(2, Z)
	f.Apply(2, X) // Z*X = Y
	if f[1] != X || f[2] != Y {
		t.Fatalf("frame = %v, want [I X Y I]", f)
	}
	if f.Weight() != 2 {
		t.Fatalf("weight = %d, want 2", f.Weight())
	}
}

func TestFrameCompose(t *testing.T) {
	f := NewFrame(3)
	f.Apply(0, X)
	g := NewFrame(3)
	g.Apply(0, Z)
	g.Apply(1, Y)
	f.Compose(g)
	if f[0] != Y || f[1] != Y || f[2] != I {
		t.Fatalf("composed frame = %v, want [Y Y I]", f)
	}
}

func TestFrameComposeSelfInverse(t *testing.T) {
	check := func(seed uint8) bool {
		f := NewFrame(8)
		for i := range f {
			f[i] = allPaulis[(int(seed)+i*3)%4]
		}
		g := f.Clone()
		f.Compose(g)
		return f.Weight() == 0
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

func TestFrameComposeLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("composing frames of different lengths should panic")
		}
	}()
	NewFrame(2).Compose(NewFrame(3))
}

func TestFrameCloneIsIndependent(t *testing.T) {
	f := NewFrame(2)
	g := f.Clone()
	g.Apply(0, X)
	if f[0] != I {
		t.Fatal("Clone shares storage with original")
	}
}

// TestSymplecticTable checks Mul, Commutes, HasX and HasZ on all 4 × 4 pairs
// against the symplectic picture: X = (1, 0), Z = (0, 1), Y = (1, 1),
// composition adds the bit pairs mod 2, and two Paulis commute when
// x_p·z_q + z_p·x_q is even. Undefined values 0, 5 and 255 panic in every
// one of them.
func TestSymplecticTable(t *testing.T) {
	sym := map[Pauli][2]int{I: {0, 0}, X: {1, 0}, Z: {0, 1}, Y: {1, 1}}
	of := map[[2]int]Pauli{}
	for p, b := range sym {
		of[b] = p
	}
	for p, pb := range sym {
		if p.HasX() != (pb[0] == 1) || p.HasZ() != (pb[1] == 1) {
			t.Errorf("%v: HasX %v HasZ %v, bits %v", p, p.HasX(), p.HasZ(), pb)
		}
		for q, qb := range sym {
			if want := of[[2]int{pb[0] ^ qb[0], pb[1] ^ qb[1]}]; p.Mul(q) != want {
				t.Errorf("%v.Mul(%v) = %v, want %v", p, q, p.Mul(q), want)
			}
			if want := (pb[0]*qb[1]+pb[1]*qb[0])%2 == 0; p.Commutes(q) != want {
				t.Errorf("%v.Commutes(%v) = %v, want %v", p, q, p.Commutes(q), want)
			}
		}
	}
	for _, bad := range []Pauli{0, 5, 255} {
		for name, op := range map[string]func(){
			"Mul":              func() { bad.Mul(X) },
			"Mul operand":      func() { X.Mul(bad) },
			"Commutes":         func() { bad.Commutes(X) },
			"Commutes operand": func() { X.Commutes(bad) },
			"HasX":             func() { bad.HasX() },
			"HasZ":             func() { bad.HasZ() },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s on Pauli(%d) did not panic", name, uint8(bad))
					}
				}()
				op()
			}()
		}
	}
}
