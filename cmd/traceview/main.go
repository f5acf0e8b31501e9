// Command traceview renders every trace SurfNet writes, sniffing which kind
// its input is:
//
//   - a JSONL event trace written by -trace-out (lines with an "event" key):
//     it reconstructs the span trees of every traced communication
//     (transfer→epoch→slot→decode), reports a per-stage latency breakdown —
//     total and self time (self = a span's duration minus its children's),
//     and p50/p90/p99 over span durations in slots — extracts the critical
//     path of the slowest transfer, and lists the top-K slowest spans per
//     stage;
//   - a flight trace from surfnetd's GET /v1/transfers/{id}/trace (an
//     "events" array): it renders the transfer's event timeline and latency
//     attribution — where its admission-to-terminal wall time went
//     (queue_wait, plan, execute, retry_backoff, fault_stall);
//   - a GET /debug/bundle document (a "flights" array): it renders every
//     bundled flight, slowest first, plus a cross-flight attribution rollup.
//
// Durations in the deterministic span trace are measured in slots, the
// engine's causal clock, and spans carry no wall time. Wall-clock latency
// lives in the registry's HDR histograms (decoder.<name>.decode_seconds and
// the daemon's service.*_wall_seconds, in -metrics-out and /metrics) and in
// flight traces.
//
// Usage:
//
//	surfnetsim -fig 6a -trace-out trace.jsonl
//	traceview trace.jsonl            # span report
//	traceview -json trace.jsonl      # machine-readable span report
//	traceview -top 10 trace.jsonl    # deeper slow-span listing
//	curl -s localhost:8080/debug/bundle | traceview         # incident view
//	curl -s localhost:8080/v1/transfers/t-3/trace > tr.json
//	traceview tr.json                # one flight
//	traceview -json bundle.json      # re-emit the parsed flights
//	traceview -top 3 bundle.json     # only the 3 slowest flights
//	traceview -id t-3 bundle.json    # one flight of a bundle
//
// With no file argument the input is read from stdin.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"
)

// spanEvent is the subset of a trace line traceview consumes. Req and Code
// are pointers so "absent" (baseline routing events, untagged spans) stays
// distinguishable from 0.
type spanEvent struct {
	Event  string `json:"event"`
	Slot   int    `json:"slot"`
	Req    *int   `json:"req"`
	Code   *int   `json:"code"`
	Name   string `json:"name"`
	Span   int    `json:"span"`
	Parent int    `json:"parent"`
	Start  int    `json:"start"`
	Dur    int    `json:"dur"`
}

// scopeKey identifies one SpanSet scope: span ids restart per communication,
// so (req, code) qualifies them within a trial. Multi-trial traces reuse
// (req, code), so a generation counter separates the repeats: every time a
// span id reappears in a scope the parser rotates to a fresh generation
// (span events are emitted in order and ids never repeat within one
// SpanSet, so a duplicate id marks the next communication's trace).
type scopeKey struct{ req, code, gen int }

// node is one reconstructed span.
type node struct {
	scope    scopeKey
	id       int
	parentID int
	name     string
	start    int
	endSlot  int
	dur      int
	depth    int
	children []*node
}

// forest holds every reconstructed span tree plus parse-level totals.
type forest struct {
	events int64 // all trace lines
	spans  int64 // span events
	nodes  map[scopeKey]map[int]*node
	gens   map[scopeKey]int // (req, code, 0) -> current generation
	roots  []*node
}

// parseTrace reads a JSONL trace and reconstructs the span forest.
// Non-span events are counted and skipped; malformed lines are an error with
// their line number.
func parseTrace(r io.Reader) (*forest, error) {
	f := &forest{nodes: map[scopeKey]map[int]*node{}, gens: map[scopeKey]int{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var ev spanEvent
		if err := json.Unmarshal(line, &ev); err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		f.events++
		if ev.Event != "span" {
			continue
		}
		f.spans++
		base := scopeKey{req: -1, code: -1}
		if ev.Req != nil {
			base.req = *ev.Req
		}
		if ev.Code != nil {
			base.code = *ev.Code
		}
		key := base
		key.gen = f.gens[base]
		scope := f.nodes[key]
		if scope == nil {
			scope = map[int]*node{}
			f.nodes[key] = scope
		}
		if _, dup := scope[ev.Span]; dup {
			key.gen++
			f.gens[base] = key.gen
			scope = map[int]*node{}
			f.nodes[key] = scope
		}
		scope[ev.Span] = &node{
			scope: key, id: ev.Span, parentID: ev.Parent,
			name: ev.Name, start: ev.Start, endSlot: ev.Slot, dur: ev.Dur,
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	f.link()
	return f, nil
}

// link connects children to parents and computes depths. Spans whose parent
// never ended (crashed scopes) become roots, so partial traces still report.
func (f *forest) link() {
	for _, scope := range f.nodes {
		for _, n := range scope {
			if p := scope[n.parentID]; n.parentID != 0 && p != nil && p != n {
				p.children = append(p.children, n)
			} else {
				f.roots = append(f.roots, n)
			}
		}
	}
	// Deterministic order for iteration and output.
	sort.Slice(f.roots, func(i, j int) bool {
		a, b := f.roots[i], f.roots[j]
		if a.scope != b.scope {
			if a.scope.req != b.scope.req {
				return a.scope.req < b.scope.req
			}
			if a.scope.code != b.scope.code {
				return a.scope.code < b.scope.code
			}
			return a.scope.gen < b.scope.gen
		}
		return a.id < b.id
	})
	var setDepth func(n *node, d int)
	setDepth = func(n *node, d int) {
		n.depth = d
		sort.Slice(n.children, func(i, j int) bool { return n.children[i].id < n.children[j].id })
		for _, c := range n.children {
			setDepth(c, d+1)
		}
	}
	for _, r := range f.roots {
		setDepth(r, 0)
	}
}

// selfSlots is a span's duration minus its children's (clamped at zero:
// overlapping child spans can oversubscribe the parent).
func selfSlots(n *node) int {
	self := n.dur
	for _, c := range n.children {
		self -= c.dur
	}
	if self < 0 {
		self = 0
	}
	return self
}

// StageStat is the aggregated latency profile of one span name.
type StageStat struct {
	Name       string `json:"name"`
	Count      int    `json:"count"`
	TotalSlots int64  `json:"total_slots"`
	SelfSlots  int64  `json:"self_slots"`
	P50        int    `json:"p50_slots"`
	P90        int    `json:"p90_slots"`
	P99        int    `json:"p99_slots"`
	Max        int    `json:"max_slots"`

	depth int // min observed depth, for hierarchical table order
}

// PathStep is one hop of a critical path.
type PathStep struct {
	Name      string `json:"name"`
	Start     int    `json:"start_slot"`
	Dur       int    `json:"dur_slots"`
	SelfSlots int    `json:"self_slots"`
}

// CriticalPath is the slowest root span's heaviest child chain.
type CriticalPath struct {
	Req      int        `json:"req"`
	Code     int        `json:"code"`
	DurSlots int        `json:"dur_slots"`
	Steps    []PathStep `json:"steps"`
}

// SlowSpan is one entry of the top-K slowest listing.
type SlowSpan struct {
	Name     string `json:"name"`
	Req      int    `json:"req"`
	Code     int    `json:"code"`
	Start    int    `json:"start_slot"`
	End      int    `json:"end_slot"`
	DurSlots int    `json:"dur_slots"`
}

// Report is traceview's full analysis of one trace.
type Report struct {
	Events  int64          `json:"events"`
	Spans   int64          `json:"spans"`
	Trees   int            `json:"trees"`
	Stages  []StageStat    `json:"stages"`
	Paths   []CriticalPath `json:"critical_paths"`
	Slowest []SlowSpan     `json:"slowest"`
}

// quantile returns the exact q-order statistic of sorted ints.
func quantile(sorted []int, q float64) int {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q*float64(len(sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// analyze builds the report: per-stage stats over every span, critical paths
// of the topK slowest trees, and the topK slowest spans per stage.
func analyze(f *forest, topK int) *Report {
	rep := &Report{Events: f.events, Spans: f.spans, Trees: len(f.roots)}

	durs := map[string][]int{}
	stats := map[string]*StageStat{}
	var all []*node
	var walk func(n *node)
	walk = func(n *node) {
		all = append(all, n)
		st := stats[n.name]
		if st == nil {
			st = &StageStat{Name: n.name, depth: n.depth}
			stats[n.name] = st
		}
		if n.depth < st.depth {
			st.depth = n.depth
		}
		st.Count++
		st.TotalSlots += int64(n.dur)
		st.SelfSlots += int64(selfSlots(n))
		durs[n.name] = append(durs[n.name], n.dur)
		for _, c := range n.children {
			walk(c)
		}
	}
	for _, r := range f.roots {
		walk(r)
	}
	for name, st := range stats {
		d := durs[name]
		sort.Ints(d)
		st.P50, st.P90, st.P99 = quantile(d, 0.50), quantile(d, 0.90), quantile(d, 0.99)
		st.Max = d[len(d)-1]
		rep.Stages = append(rep.Stages, *st)
	}
	sort.Slice(rep.Stages, func(i, j int) bool {
		a, b := rep.Stages[i], rep.Stages[j]
		if a.depth != b.depth {
			return a.depth < b.depth
		}
		return a.Name < b.Name
	})

	// Critical paths: the topK slowest roots, each following its heaviest
	// child until a leaf.
	roots := append([]*node(nil), f.roots...)
	sort.SliceStable(roots, func(i, j int) bool { return roots[i].dur > roots[j].dur })
	for i := 0; i < len(roots) && i < topK; i++ {
		r := roots[i]
		cp := CriticalPath{Req: r.scope.req, Code: r.scope.code, DurSlots: r.dur}
		for n := r; n != nil; {
			cp.Steps = append(cp.Steps, PathStep{
				Name: n.name, Start: n.start, Dur: n.dur, SelfSlots: selfSlots(n),
			})
			var heaviest *node
			for _, c := range n.children {
				if heaviest == nil || c.dur > heaviest.dur {
					heaviest = c
				}
			}
			n = heaviest
		}
		rep.Paths = append(rep.Paths, cp)
	}

	// Top-K slowest spans per stage, flattened and ordered slowest-first.
	sort.SliceStable(all, func(i, j int) bool { return all[i].dur > all[j].dur })
	perStage := map[string]int{}
	for _, n := range all {
		if perStage[n.name] >= topK {
			continue
		}
		perStage[n.name]++
		rep.Slowest = append(rep.Slowest, SlowSpan{
			Name: n.name, Req: n.scope.req, Code: n.scope.code,
			Start: n.start, End: n.endSlot, DurSlots: n.dur,
		})
	}
	return rep
}

// writeTable renders the human-readable report.
func writeTable(w io.Writer, rep *Report) {
	fmt.Fprintf(w, "trace: %d events, %d spans, %d span trees\n\n", rep.Events, rep.Spans, rep.Trees)

	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "STAGE\tCOUNT\tTOTAL\tSELF\tP50\tP90\tP99\tMAX")
	for _, st := range rep.Stages {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\t%d\t%d\t%d\n",
			st.Name, st.Count, st.TotalSlots, st.SelfSlots, st.P50, st.P90, st.P99, st.Max)
	}
	tw.Flush()
	fmt.Fprintln(w, "(durations in slots; SELF excludes child spans)")

	for i, cp := range rep.Paths {
		if i == 0 {
			fmt.Fprintln(w, "\ncritical paths (slowest transfers, heaviest child chain):")
		}
		fmt.Fprintf(w, "  #%d req=%d code=%d %d slots:", i+1, cp.Req, cp.Code, cp.DurSlots)
		for j, s := range cp.Steps {
			if j > 0 {
				fmt.Fprint(w, " >")
			}
			fmt.Fprintf(w, " %s[%d@%d self=%d]", s.Name, s.Dur, s.Start, s.SelfSlots)
		}
		fmt.Fprintln(w)
	}

	if len(rep.Slowest) > 0 {
		fmt.Fprintln(w, "\nslowest spans per stage:")
		tw = tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "  STAGE\tDUR\tSTART\tEND\tREQ\tCODE")
		for _, s := range rep.Slowest {
			fmt.Fprintf(tw, "  %s\t%d\t%d\t%d\t%d\t%d\n",
				s.Name, s.DurSlots, s.Start, s.End, s.Req, s.Code)
		}
		tw.Flush()
	}
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("traceview", flag.ContinueOnError)
	fs.SetOutput(stderr)
	asJSON := fs.Bool("json", false, "emit the span report, or the parsed flights, as JSON instead of tables")
	topK := fs.Int("top", 5, "span traces: how many critical paths and slowest spans per stage to keep; flights: show only the N slowest (default: all)")
	id := fs.String("id", "", "show only the flight with this transfer ID")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	in := stdin
	if fs.NArg() > 1 {
		fmt.Fprintln(stderr, "traceview: at most one input file")
		return 2
	}
	if fs.NArg() == 1 {
		f, err := os.Open(fs.Arg(0))
		if err != nil {
			fmt.Fprintf(stderr, "traceview: %v\n", err)
			return 1
		}
		defer f.Close()
		in = f
	}
	in, spans, err := sniff(in)
	if err != nil {
		fmt.Fprintf(stderr, "traceview: %v\n", err)
		return 1
	}
	if !spans {
		// -top keeps its flight meaning: unset shows every flight.
		topFlights := 0
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "top" {
				topFlights = *topK
			}
		})
		return runFlights(in, stdout, stderr, *asJSON, topFlights, *id)
	}
	if *id != "" {
		fmt.Fprintln(stderr, "traceview: -id selects a flight; the input is a -trace-out span trace")
		return 2
	}
	forest, err := parseTrace(in)
	if err != nil {
		fmt.Fprintf(stderr, "traceview: %v\n", err)
		return 1
	}
	if forest.spans == 0 {
		fmt.Fprintln(stderr, "traceview: no span events in trace (was it written with -trace-out?)")
		return 1
	}
	rep := analyze(forest, *topK)
	if *asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintf(stderr, "traceview: %v\n", err)
			return 1
		}
		return 0
	}
	writeTable(stdout, rep)
	return 0
}

// sniff reads the input's first JSON value and reports whether it is a
// -trace-out line (an object with an "event" key) rather than a flight trace
// or bundle document. The returned reader replays the whole input; empty
// input counts as a span trace with no lines.
func sniff(r io.Reader) (io.Reader, bool, error) {
	dec := json.NewDecoder(r)
	var first json.RawMessage
	if err := dec.Decode(&first); err != nil {
		if err == io.EOF {
			return r, true, nil
		}
		return nil, false, fmt.Errorf("parsing input: %w", err)
	}
	var keys map[string]json.RawMessage
	_ = json.Unmarshal(first, &keys) // not an object: no keys, not a span line
	_, line := keys["event"]
	return io.MultiReader(bytes.NewReader(first), dec.Buffered(), r), line, nil
}
