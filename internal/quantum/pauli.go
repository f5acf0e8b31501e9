// Package quantum provides the Pauli-frame algebra and the fidelity/noise
// arithmetic used throughout the SurfNet reproduction.
//
// The paper restricts channel errors to Pauli errors and erasure errors with
// error-free measurements (§I, §IV). Under that model a surface code never
// needs amplitude-level simulation: the state of every data qubit is tracked
// as a Pauli frame, syndromes are parity functions of the frame, and logical
// failure is a parity check against the logical operators. This package holds
// the frame algebra; internal/surfacecode builds the codes on top of it.
package quantum

import "fmt"

// Pauli is a single-qubit Pauli operator, ignoring global phase. The zero
// value is invalid so that uninitialized frames are caught early; identity is
// explicit.
type Pauli uint8

// The four Pauli operators. p-1 packs p's symplectic bits, the X component
// in bit 0 and the Z component in bit 1, so composition is a XOR on p-1.
const (
	I Pauli = 1 + iota // identity
	X                  // bit flip
	Z                  // phase flip
	Y                  // both (Y = iXZ, phase ignored)
)

// bits returns p's (x, z) symplectic bits: p-1 split into bit 0 and bit 1.
// It panics on an undefined value.
func (p Pauli) bits() (x, z uint8) {
	if !p.Valid() {
		panic(invalidPauli(p))
	}
	b := uint8(p - I)
	return b & 1, b >> 1
}

// invalidPauli is the panic value of an operation on an undefined Pauli. It
// formats its message only when printed: a fmt.Sprintf call in bits would
// keep bits from being inlined into the syndrome pass.
type invalidPauli uint8

func (p invalidPauli) Error() string { return fmt.Sprintf("quantum: invalid Pauli %d", uint8(p)) }

// Mul composes two Paulis (up to global phase): Mul(X, Z) == Y.
func (p Pauli) Mul(q Pauli) Pauli {
	if !p.Valid() {
		panic(invalidPauli(p))
	}
	if !q.Valid() {
		panic(invalidPauli(q))
	}
	return ((p - I) ^ (q - I)) + I
}

// HasX reports whether the operator contains an X component (X or Y), i.e.
// whether it flips measure-Z stabilizers.
func (p Pauli) HasX() bool {
	x, _ := p.bits()
	return x == 1
}

// HasZ reports whether the operator contains a Z component (Z or Y), i.e.
// whether it flips measure-X stabilizers.
func (p Pauli) HasZ() bool {
	_, z := p.bits()
	return z == 1
}

// Commutes reports whether p and q commute. Two Paulis anticommute exactly
// when their symplectic product is odd.
func (p Pauli) Commutes(q Pauli) bool {
	px, pz := p.bits()
	qx, qz := q.bits()
	return px&qz^pz&qx == 0
}

// IsIdentity reports whether p is the identity.
func (p Pauli) IsIdentity() bool { return p == I }

// Valid reports whether p is one of the four defined operators.
func (p Pauli) Valid() bool { return p >= I && p <= Y }

// String implements fmt.Stringer.
func (p Pauli) String() string {
	switch p {
	case I:
		return "I"
	case X:
		return "X"
	case Z:
		return "Z"
	case Y:
		return "Y"
	default:
		return fmt.Sprintf("Pauli(%d)", uint8(p))
	}
}

// Frame is a Pauli frame over a register of qubits: element i is the
// accumulated Pauli error on qubit i.
type Frame []Pauli

// NewFrame returns an identity frame over n qubits.
func NewFrame(n int) Frame {
	f := make(Frame, n)
	for i := range f {
		f[i] = I
	}
	return f
}

// Apply composes p onto qubit i.
func (f Frame) Apply(i int, p Pauli) { f[i] = f[i].Mul(p) }

// Compose XORs another frame into f. Both frames must have the same length.
func (f Frame) Compose(g Frame) {
	if len(f) != len(g) {
		panic(fmt.Sprintf("quantum: frame length mismatch %d != %d", len(f), len(g)))
	}
	for i, p := range g {
		f[i] = f[i].Mul(p)
	}
}

// Clone returns a copy of the frame.
func (f Frame) Clone() Frame {
	g := make(Frame, len(f))
	copy(g, f)
	return g
}

// Weight returns the number of non-identity entries.
func (f Frame) Weight() int {
	w := 0
	for _, p := range f {
		if !p.IsIdentity() {
			w++
		}
	}
	return w
}
