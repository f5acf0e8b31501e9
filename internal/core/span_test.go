package core

import (
	"bytes"
	"encoding/json"
	"sort"
	"strings"
	"testing"

	"surfnet/internal/faults"
	"surfnet/internal/network"
	"surfnet/internal/rng"
	"surfnet/internal/routing"
	"surfnet/internal/telemetry"
)

// spanEv is the decoded form of one "span" trace line.
type spanEv struct {
	Event  string `json:"event"`
	Req    int    `json:"req"`
	Code   int    `json:"code"`
	Name   string `json:"name"`
	Span   int    `json:"span"`
	Parent int    `json:"parent"`
	Start  int    `json:"start"`
	Dur    int    `json:"dur"`
	Slot   int    `json:"slot"`
	// Replanned marks an epoch span closed by a re-plan.
	Replanned bool `json:"replanned"`
}

// collectSpans runs sched on net under a JSONL tracer and returns the span
// events grouped per communication.
func collectSpans(t *testing.T, net *network.Network, sched routing.Schedule, cfg Config, seed uint64) map[[2]int][]spanEv {
	t.Helper()
	var buf bytes.Buffer
	tr := telemetry.NewJSONL(&buf)
	cfg.Tracer = tr
	if _, err := Run(net, sched, cfg, rng.New(seed)); err != nil {
		t.Fatal(err)
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	spans := map[[2]int][]spanEv{}
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var ev spanEv
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("bad trace line %q: %v", line, err)
		}
		if ev.Event != "span" {
			continue
		}
		key := [2]int{ev.Req, ev.Code}
		spans[key] = append(spans[key], ev)
	}
	return spans
}

// checkSpanTree verifies the well-formedness contract for one transfer's
// spans: ids unique, every non-root parent exists, durations and start slots
// non-negative, children contained in their parent's [start, start+dur]
// window, and the expected hierarchy names.
func checkSpanTree(t *testing.T, key [2]int, spans []spanEv) {
	t.Helper()
	byID := map[int]spanEv{}
	for _, s := range spans {
		if s.Span < 1 {
			t.Fatalf("%v: span id %d < 1", key, s.Span)
		}
		if _, dup := byID[s.Span]; dup {
			t.Fatalf("%v: duplicate span id %d", key, s.Span)
		}
		byID[s.Span] = s
	}
	transfers := 0
	for _, s := range spans {
		if s.Dur < 0 || s.Start < 0 {
			t.Fatalf("%v: span %+v has negative start or duration", key, s)
		}
		if s.Name == "transfer" {
			transfers++
			if s.Parent != 0 {
				t.Fatalf("%v: transfer span has parent %d, want 0 (root)", key, s.Parent)
			}
			continue
		}
		parent, ok := byID[s.Parent]
		if !ok {
			t.Fatalf("%v: span %+v references missing parent %d", key, s, s.Parent)
		}
		if s.Start < parent.Start || s.Start+s.Dur > parent.Start+parent.Dur {
			t.Fatalf("%v: span %+v escapes parent window %+v", key, s, parent)
		}
		wantParent := map[string]string{"epoch": "transfer", "slot": "epoch", "decode": "slot"}[s.Name]
		if wantParent == "" {
			t.Fatalf("%v: unexpected span name %q", key, s.Name)
		}
		if parent.Name != wantParent {
			t.Fatalf("%v: %s span nested under %s, want %s", key, s.Name, parent.Name, wantParent)
		}
	}
	if transfers != 1 {
		t.Fatalf("%v: %d transfer spans, want exactly 1", key, transfers)
	}
}

func TestSurfNetSpanTreeWellFormed(t *testing.T) {
	net := lineNet(t, 0.95, 0.6, 0.02)
	spans := collectSpans(t, net, mustSchedule(t, net, routing.SurfNet, 2), DefaultConfig(), 7)
	if len(spans) == 0 {
		t.Fatal("no spans traced")
	}
	decodes, epochs := 0, 0
	for key, ss := range spans {
		checkSpanTree(t, key, ss)
		for _, s := range ss {
			switch s.Name {
			case "decode":
				decodes++
			case "epoch":
				epochs++
			}
		}
	}
	if decodes == 0 {
		t.Fatal("no decode spans: the transfer's latency cannot be decomposed")
	}
	if epochs < len(spans) {
		t.Fatalf("%d epoch spans for %d transfers", epochs, len(spans))
	}
}

func TestPurificationSpanTreeWellFormed(t *testing.T) {
	net := lineNet(t, 0.95, 0.6, 0.02)
	spans := collectSpans(t, net, mustSchedule(t, net, routing.Purification2, 2), DefaultConfig(), 7)
	if len(spans) == 0 {
		t.Fatal("no spans traced")
	}
	for key, ss := range spans {
		for _, s := range ss {
			if s.Name != "transfer" || s.Parent != 0 || s.Dur < 0 {
				t.Fatalf("%v: unexpected purification span %+v", key, s)
			}
		}
	}
}

// TestReplanRotatesEpochSpans runs TestReplanAfterPersistentRecoveryFailure's
// scenario, where a cut primary route forces an epoch re-plan, and checks
// that the re-plan closes the first epoch span and opens a new one under the
// same transfer.
func TestReplanRotatesEpochSpans(t *testing.T) {
	net := branchNet(t)
	sched := mustSchedule(t, net, routing.SurfNet, 1)
	cfg := DefaultConfig()
	cfg.Faults = &faults.Profile{Script: []faults.ScriptedFault{
		{Slot: 1, Duration: 100000, ID: 1},
	}}
	cfg.ReplanAfterFails = 3
	cfg.ReplanEpoch = 10
	cfg.MaxSlots = 400
	spans := collectSpans(t, net, sched, cfg, 41)
	if len(spans) == 0 {
		t.Fatal("no spans traced")
	}
	for key, ss := range spans {
		checkSpanTree(t, key, ss)
		var epochs []spanEv
		for _, s := range ss {
			if s.Name == "epoch" {
				epochs = append(epochs, s)
			}
		}
		if len(epochs) < 2 {
			t.Fatalf("%v: %d epoch spans, want at least 2 after the re-plan", key, len(epochs))
		}
		sort.Slice(epochs, func(i, j int) bool { return epochs[i].Span < epochs[j].Span })
		if !epochs[0].Replanned {
			t.Fatalf("%v: first epoch span %+v did not end with replanned: true", key, epochs[0])
		}
	}
}
