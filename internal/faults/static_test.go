package faults

import (
	"errors"
	"reflect"
	"testing"

	"surfnet/internal/rng"
)

func TestStaticOverlay(t *testing.T) {
	inj := NewStatic([]int{1, 3}, []int{2}, map[int]float64{0: 0.5})
	if inj == nil {
		t.Fatal("non-empty overlay must build an injector")
	}
	// Step is a no-op and must consume no randomness: two sources, one
	// stepped through the overlay, stay in sync.
	a, b := rng.New(7), rng.New(7)
	inj.Step(Scope{Slot: 0, Src: a}, func(Event) { t.Fatal("static overlay must not emit events") })
	if a.Float64() != b.Float64() {
		t.Fatal("static overlay consumed randomness")
	}
	for fi := 0; fi < 4; fi++ {
		want := fi == 1 || fi == 3
		if inj.FiberDown(fi) != want {
			t.Fatalf("FiberDown(%d) = %v, want %v", fi, !want, want)
		}
	}
	if !inj.NodeDown(2) || inj.NodeDown(1) {
		t.Fatal("NodeDown must report exactly the overlay nodes")
	}
	if g := inj.Gamma(0, 0.9); g != 0.45 {
		t.Fatalf("Gamma(0, 0.9) = %v, want 0.45", g)
	}
	// Fibers outside the scale map pass through bit-identically.
	if g := inj.Gamma(2, 0.9); g != 0.9 {
		t.Fatalf("Gamma(2, 0.9) = %v, want 0.9 unchanged", g)
	}
}

func TestStaticEmptyIsNil(t *testing.T) {
	if NewStatic(nil, nil, nil) != nil {
		t.Fatal("empty overlay must compile to nil (no faults)")
	}
}

func TestProfileOverlayEnabledAndValidated(t *testing.T) {
	net := testNet(t)
	p := Profile{DownFibers: []int{1}}
	if !p.Enabled() {
		t.Fatal("overlay-only profile must be enabled")
	}
	if p.Build(net) == nil {
		t.Fatal("overlay-only profile must build an injector")
	}
	if err := p.ValidateAgainst(net); err != nil {
		t.Fatalf("valid overlay rejected: %v", err)
	}
	bad := []Profile{
		{DownFibers: []int{-1}},
		{DownNodes: []int{-2}},
		{GammaScale: map[int]float64{0: 1.5}},
	}
	for i, p := range bad {
		if err := p.Validate(); !errors.Is(err, ErrProfile) {
			t.Fatalf("bad[%d].Validate() = %v, want ErrProfile", i, err)
		}
	}
	outOfRange := []Profile{
		{DownFibers: []int{net.NumFibers()}},
		{DownNodes: []int{net.NumNodes()}},
		{GammaScale: map[int]float64{net.NumFibers(): 0.5}},
	}
	for i, p := range outOfRange {
		if p.Validate() != nil {
			t.Fatalf("outOfRange[%d] must pass network-free validation", i)
		}
		if err := p.ValidateAgainst(net); !errors.Is(err, ErrProfile) {
			t.Fatalf("outOfRange[%d].ValidateAgainst() = %v, want ErrProfile", i, err)
		}
	}
}

func TestParseScriptRoundTrip(t *testing.T) {
	script, err := ParseScript("40:fiber:3:60, 10:node:2:5")
	if err != nil {
		t.Fatal(err)
	}
	want := []ScriptedFault{
		{Slot: 40, Duration: 60, ID: 3},
		{Slot: 10, Duration: 5, Node: true, ID: 2},
	}
	if len(script) != len(want) {
		t.Fatalf("parsed %d entries, want %d", len(script), len(want))
	}
	for i := range want {
		if script[i] != want[i] {
			t.Fatalf("entry %d = %+v, want %+v", i, script[i], want[i])
		}
	}
	if got := FormatScript(script); got != "40:fiber:3:60,10:node:2:5" {
		t.Fatalf("FormatScript = %q", got)
	}
	reparsed, err := ParseScript(FormatScript(script))
	if err != nil || len(reparsed) != len(script) {
		t.Fatalf("round trip failed: %v (%d entries)", err, len(reparsed))
	}
	if s, err := ParseScript("  "); err != nil || s != nil {
		t.Fatalf("blank script = %v, %v; want nil, nil", s, err)
	}
	for _, bad := range []string{"40:fiber:3", "x:fiber:3:60", "40:link:3:60", "40:fiber:x:60"} {
		if _, err := ParseScript(bad); err == nil {
			t.Fatalf("ParseScript(%q) must fail", bad)
		}
	}
}

// FuzzScriptRoundTrip checks the script text form against itself: any string
// ParseScript accepts must format with FormatScript to a string that parses
// back to the same entries and formats identically (the canonical form is a
// fixed point). Its seed corpus is in testdata/fuzz/FuzzScriptRoundTrip.
func FuzzScriptRoundTrip(f *testing.F) {
	f.Fuzz(func(t *testing.T, arg string) {
		script, err := ParseScript(arg)
		if err != nil {
			return
		}
		text := FormatScript(script)
		again, err := ParseScript(text)
		if err != nil {
			t.Fatalf("ParseScript(%q) accepted; its format %q does not parse: %v", arg, text, err)
		}
		if !reflect.DeepEqual(again, script) {
			t.Fatalf("ParseScript(%q) = %+v; its format %q parses to %+v", arg, script, text, again)
		}
		if got := FormatScript(again); got != text {
			t.Fatalf("format of %q is %q, not a fixed point (%q)", arg, text, got)
		}
	})
}
