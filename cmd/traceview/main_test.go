package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"surfnet/internal/telemetry"
)

// buildTrace emits two realistic transfer scopes plus a non-span event
// through the real SpanSet/JSONL pipeline, so the test parses exactly what
// -trace-out writes.
func buildTrace(t *testing.T) string {
	t.Helper()
	var sb strings.Builder
	tr := telemetry.NewJSONL(&sb)

	// Scope (0,0): transfer(0..20) > epoch(0..20) > 2 slots, each with a
	// zero-slot decode. Slot 1 is the slow one (12 slots).
	s := telemetry.NewSpanSet(tr, 0, 0)
	transfer := s.Start("transfer", 0, 0)
	epoch := s.Start("epoch", transfer, 0)
	slot1 := s.Start("slot", epoch, 0)
	dec1 := s.Start("decode", slot1, 0)
	s.End(dec1, 0)
	s.End(slot1, 12)
	slot2 := s.Start("slot", epoch, 12)
	dec2 := s.Start("decode", slot2, 12)
	s.End(dec2, 12)
	s.End(slot2, 16)
	s.End(epoch, 20)
	s.End(transfer, 20)

	// Scope (1,0): a faster transfer.
	s2 := telemetry.NewSpanSet(tr, 1, 0)
	t2 := s2.Start("transfer", 0, 0)
	sl := s2.Start("slot", t2, 0)
	s2.End(sl, 3)
	s2.End(t2, 5)

	// A non-span engine event must be counted but otherwise ignored.
	ev := telemetry.Ev("core.photon_loss", "fiber", 3)
	ev.Slot = 4
	tr.Emit(ev)

	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

func TestAnalyzeSpanForest(t *testing.T) {
	f, err := parseTrace(strings.NewReader(buildTrace(t)))
	if err != nil {
		t.Fatal(err)
	}
	if f.events != 9 || f.spans != 8 {
		t.Fatalf("events=%d spans=%d, want 9/8", f.events, f.spans)
	}
	rep := analyze(f, 3)
	if rep.Trees != 2 {
		t.Fatalf("trees = %d, want 2", rep.Trees)
	}

	byName := map[string]StageStat{}
	for _, st := range rep.Stages {
		byName[st.Name] = st
	}
	// transfer: durs 20 and 5; self for scope0 = 20-20(epoch)=0, scope1 = 5-3 = 2.
	tr := byName["transfer"]
	if tr.Count != 2 || tr.TotalSlots != 25 || tr.SelfSlots != 2 || tr.Max != 20 {
		t.Fatalf("transfer stat %+v", tr)
	}
	// epoch self = 20 - (12+4) = 4.
	if ep := byName["epoch"]; ep.SelfSlots != 4 || ep.Count != 1 {
		t.Fatalf("epoch stat %+v", ep)
	}
	// slots: durs 3,4,12 → p50=4, p99=max=12; decodes are zero-slot children.
	sl := byName["slot"]
	if sl.Count != 3 || sl.P50 != 4 || sl.P99 != 12 || sl.SelfSlots != 19 {
		t.Fatalf("slot stat %+v", sl)
	}
	if byName["decode"].TotalSlots != 0 {
		t.Fatalf("decode stat %+v", byName["decode"])
	}
	// Hierarchical order: parents before children.
	if rep.Stages[0].Name != "transfer" || rep.Stages[len(rep.Stages)-1].Name != "decode" {
		t.Fatalf("stage order %+v", rep.Stages)
	}

	// Critical path of the slowest transfer: transfer > epoch > slot1 > decode.
	if len(rep.Paths) != 2 {
		t.Fatalf("paths = %d, want 2 (one per tree)", len(rep.Paths))
	}
	cp := rep.Paths[0]
	if cp.Req != 0 || cp.DurSlots != 20 {
		t.Fatalf("critical path root %+v", cp)
	}
	var names []string
	for _, s := range cp.Steps {
		names = append(names, s.Name)
	}
	if got := strings.Join(names, ">"); got != "transfer>epoch>slot>decode" {
		t.Fatalf("critical path %q", got)
	}
	if cp.Steps[2].Dur != 12 {
		t.Fatalf("critical path picked slot dur %d, want 12 (the heaviest)", cp.Steps[2].Dur)
	}

	// Slowest listing: the 12-slot slot leads its stage.
	var slowestSlot *SlowSpan
	for i := range rep.Slowest {
		if rep.Slowest[i].Name == "slot" {
			slowestSlot = &rep.Slowest[i]
			break
		}
	}
	if slowestSlot == nil || slowestSlot.DurSlots != 12 || slowestSlot.End != 12 {
		t.Fatalf("slowest slot %+v", slowestSlot)
	}
}

// TestRunTableAndJSON drives the CLI entry end to end on both output modes.
func TestRunTableAndJSON(t *testing.T) {
	trace := buildTrace(t)

	var out, errb bytes.Buffer
	if code := run(nil, strings.NewReader(trace), &out, &errb); code != 0 {
		t.Fatalf("run = %d, stderr: %s", code, errb.String())
	}
	text := out.String()
	for _, want := range []string{
		"STAGE", "transfer", "critical paths", "slowest spans", "P99",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("table output missing %q:\n%s", want, text)
		}
	}

	out.Reset()
	if code := run([]string{"-json", "-top", "2"}, strings.NewReader(trace), &out, &errb); code != 0 {
		t.Fatalf("run -json = %d, stderr: %s", code, errb.String())
	}
	var rep Report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("JSON output: %v\n%s", err, out.String())
	}
	if rep.Spans != 8 || len(rep.Stages) != 4 {
		t.Fatalf("JSON report %+v", rep)
	}

	// Traces without spans are a usage error, not a zero report.
	out.Reset()
	if code := run(nil, strings.NewReader(`{"event":"core.decode","slot":1}`+"\n"), &out, &errb); code != 1 {
		t.Fatalf("span-less trace: run = %d, want 1", code)
	}
}

const sampleTrace = `{
  "id": "t-1",
  "state": "completed",
  "retries": 1,
  "events": [
    {"seq": 0, "kind": "admitted", "tick": 0, "wall_ns": 1000},
    {"seq": 1, "kind": "queue_enter", "tick": 0, "wall_ns": 2000, "detail": {"queue_depth": 1}},
    {"seq": 2, "kind": "queue_exit", "tick": 0, "wall_ns": 5000, "detail": {"queue_depth": 0}},
    {"seq": 3, "kind": "planned", "tick": 0, "wall_ns": 8000, "note": "warm", "detail": {"batch": 1}},
    {"seq": 4, "kind": "terminal", "tick": 1, "wall_ns": 11000, "note": "completed"}
  ],
  "segments": [
    {"class": "queue_wait", "ticks": 0, "wall_ns": 4000, "seconds": 4e-6},
    {"class": "plan", "ticks": 0, "wall_ns": 3000, "seconds": 3e-6},
    {"class": "execute", "ticks": 1, "wall_ns": 3000, "seconds": 3e-6}
  ],
  "total_ticks": 1,
  "total_wall_ns": 10000,
  "total_seconds": 1e-5
}`

func TestParseSniffsTraceAndBundle(t *testing.T) {
	doc, err := parse(strings.NewReader(sampleTrace))
	if err != nil {
		t.Fatalf("parse trace: %v", err)
	}
	if len(doc.Flights) != 1 || doc.Flights[0].ID != "t-1" {
		t.Fatalf("trace parsed to %+v", doc.Flights)
	}

	bundle := `{"status": {}, "metrics": {}, "faults": {}, "flights": [` + sampleTrace + `, ` + sampleTrace + `]}`
	doc, err = parse(strings.NewReader(bundle))
	if err != nil {
		t.Fatalf("parse bundle: %v", err)
	}
	if len(doc.Flights) != 2 {
		t.Fatalf("bundle parsed to %d flights, want 2", len(doc.Flights))
	}

	if _, err := parse(strings.NewReader(`{"status": {}}`)); err == nil {
		t.Fatal("document with neither flights nor events must be an error")
	}
	if _, err := parse(strings.NewReader(`not json`)); err == nil {
		t.Fatal("malformed input must be an error")
	}
}

func TestRenderFlightTimelineAndAttribution(t *testing.T) {
	doc, err := parse(strings.NewReader(sampleTrace))
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	renderFlight(&sb, doc.Flights[0])
	out := sb.String()
	for _, want := range []string{
		"flight t-1", "state=completed", "retries=1",
		"admitted", "queue_enter", "planned", "terminal",
		"warm", "queue_depth=1",
		"attribution", "queue_wait", "plan", "execute", "40.0%",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered flight missing %q:\n%s", want, out)
		}
	}
	// The timeline renders relative to the flight's first event: the
	// terminal event lands at exactly the total wall time.
	if !strings.Contains(out, "0.010ms") {
		t.Fatalf("terminal event not at t+total:\n%s", out)
	}
}

func TestRenderRollupSumsFlights(t *testing.T) {
	doc, err := parse(strings.NewReader(sampleTrace))
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	renderRollup(&sb, []flightTrace{doc.Flights[0], doc.Flights[0]})
	out := sb.String()
	if !strings.Contains(out, "2 flights") || !strings.Contains(out, "0.020ms") {
		t.Fatalf("rollup wrong:\n%s", out)
	}
	if !strings.Contains(out, "queue_wait") || !strings.Contains(out, "0.008ms") {
		t.Fatalf("rollup missing summed queue_wait:\n%s", out)
	}
}

// TestRunSniffsFlightInputs drives the CLI entry on the two flight document
// kinds: a bare trace and a bundle render as flights, -id and -top select
// among bundled flights, and -id on a span trace is a usage error.
func TestRunSniffsFlightInputs(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run(nil, strings.NewReader(sampleTrace), &out, &errb); code != 0 {
		t.Fatalf("run(trace) = %d, stderr: %s", code, errb.String())
	}
	if !strings.HasPrefix(out.String(), "flight t-1  state=completed") || strings.Contains(out.String(), "rollup") {
		t.Fatalf("bare trace rendered as:\n%s", out.String())
	}

	other := strings.Replace(strings.Replace(sampleTrace, `"t-1"`, `"t-2"`, 1), `"total_wall_ns": 10000`, `"total_wall_ns": 20000`, 1)
	bundle := `{"status": {}, "metrics": {}, "faults": {}, "flights": [` + sampleTrace + `, ` + other + `]}`
	out.Reset()
	if code := run(nil, strings.NewReader(bundle), &out, &errb); code != 0 {
		t.Fatalf("run(bundle) = %d, stderr: %s", code, errb.String())
	}
	text := out.String()
	if i, j := strings.Index(text, "flight t-2"), strings.Index(text, "flight t-1"); i < 0 || j < i || !strings.Contains(text, "rollup over 2 flights") {
		t.Fatalf("bundle must render slowest first, then the rollup:\n%s", text)
	}

	for _, args := range [][]string{{"-id", "t-1"}, {"-top", "1"}} {
		out.Reset()
		if code := run(append(args, "-json"), strings.NewReader(bundle), &out, &errb); code != 0 {
			t.Fatalf("run(%v) = %d, stderr: %s", args, code, errb.String())
		}
		var flights []flightTrace
		if err := json.Unmarshal(out.Bytes(), &flights); err != nil || len(flights) != 1 {
			t.Fatalf("run(%v -json) = %d flights (%v):\n%s", args, len(flights), err, out.String())
		}
	}
	if code := run([]string{"-id", "t-9"}, strings.NewReader(bundle), &out, &errb); code != 1 {
		t.Fatalf("unknown -id: run = %d, want 1", code)
	}
	if code := run([]string{"-id", "t-1"}, strings.NewReader(buildTrace(t)), &out, &errb); code != 2 {
		t.Fatalf("-id on a span trace: run = %d, want 2", code)
	}
}
