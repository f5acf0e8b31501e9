package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestSpanSetEmitsStableEvents(t *testing.T) {
	var buf bytes.Buffer
	tr := NewJSONL(&buf)
	s := NewSpanSet(tr, 2, 1)

	root := s.Start("transfer", 0, 0)
	child := s.Start("slot", root, 3)
	s.End(child, 4)
	s.End(root, 10, "delivered", true)
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("emitted %d lines, want 2:\n%s", len(lines), buf.String())
	}
	// Children end before parents, so the child line comes first.
	want0 := `{"event":"span","slot":4,"req":2,"code":1,"dur":1,"name":"slot","parent":1,"span":2,"start":3}`
	if lines[0] != want0 {
		t.Errorf("child line:\ngot  %s\nwant %s", lines[0], want0)
	}
	var rootEv map[string]any
	if err := json.Unmarshal([]byte(lines[1]), &rootEv); err != nil {
		t.Fatal(err)
	}
	if rootEv["name"] != "transfer" || rootEv["parent"] != float64(0) ||
		rootEv["dur"] != float64(10) || rootEv["delivered"] != true {
		t.Errorf("root span event %v", rootEv)
	}
}

func TestSpanSetIDsSequential(t *testing.T) {
	s := NewSpanSet(NewJSONL(&bytes.Buffer{}), -1, -1)
	for want := 1; want <= 5; want++ {
		if id := s.Start("s", 0, 0); id != want {
			t.Fatalf("span id = %d, want %d", id, want)
		}
	}
	if open := s.Open(); open != 5 {
		t.Fatalf("open = %d, want 5", open)
	}
}

func TestSpanSetNilSafe(t *testing.T) {
	var s *SpanSet
	if id := s.Start("x", 0, 0); id != 0 {
		t.Fatalf("nil Start = %d, want 0", id)
	}
	s.End(1, 5) // no panic
	s.End(0, 5) // id 0 is the root sentinel, never a real span
	if s.Open() != 0 {
		t.Fatal("nil Open != 0")
	}
	if NewSpanSet(nil, 0, 0) != nil {
		t.Fatal("NewSpanSet(nil) should return nil")
	}
}

func TestSpanSetDoubleEndAndClampedDuration(t *testing.T) {
	var buf bytes.Buffer
	tr := NewJSONL(&buf)
	s := NewSpanSet(tr, -1, -1)
	id := s.Start("x", 0, 7)
	s.End(id, 3) // end before start: duration clamps to 0
	s.End(id, 9) // second End is ignored
	s.End(99, 9) // unknown id is ignored
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1 {
		t.Fatalf("emitted %d lines, want 1", len(lines))
	}
	var ev map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &ev); err != nil {
		t.Fatal(err)
	}
	if ev["dur"] != float64(0) {
		t.Fatalf("clamped dur = %v, want 0", ev["dur"])
	}
	if s.Open() != 0 {
		t.Fatal("span still open after End")
	}
}
