package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"text/tabwriter"
)

// traceEvent, segment, and flightTrace mirror surfnetd's flight wire types.
type traceEvent struct {
	Seq    uint64           `json:"seq"`
	Kind   string           `json:"kind"`
	Tick   int64            `json:"tick"`
	WallNs int64            `json:"wall_ns"`
	Note   string           `json:"note,omitempty"`
	Detail map[string]int64 `json:"detail,omitempty"`
}

type segment struct {
	Class   string  `json:"class"`
	Ticks   int64   `json:"ticks"`
	WallNs  int64   `json:"wall_ns"`
	Seconds float64 `json:"seconds"`
}

type flightTrace struct {
	ID           string       `json:"id"`
	Tenant       string       `json:"tenant,omitempty"`
	State        string       `json:"state"`
	FailureClass string       `json:"failure_class,omitempty"`
	Epoch        int64        `json:"epoch,omitempty"`
	Retries      int          `json:"retries,omitempty"`
	Events       []traceEvent `json:"events"`
	Segments     []segment    `json:"segments"`
	TotalTicks   int64        `json:"total_ticks"`
	TotalWallNs  int64        `json:"total_wall_ns"`
	TotalSeconds float64      `json:"total_seconds"`
}

// document is a flight input: a bundle's flights or one bare trace.
type document struct {
	Flights []flightTrace `json:"flights"`
	// Bare-trace fields; ID+Events present means the input was one trace.
	flightTrace
}

// parse decodes a flight document, telling a bundle from a bare trace.
func parse(r io.Reader) (document, error) {
	var doc document
	dec := json.NewDecoder(r)
	if err := dec.Decode(&doc); err != nil {
		return document{}, fmt.Errorf("parsing input: %w", err)
	}
	if doc.Flights == nil {
		if doc.ID == "" && len(doc.Events) == 0 {
			return document{}, fmt.Errorf("input is neither a -trace-out trace (no \"event\"), a /debug/bundle (no \"flights\") nor a transfer trace (no \"events\")")
		}
		doc.Flights = []flightTrace{doc.flightTrace}
	}
	return doc, nil
}

// runFlights renders a flight trace or bundle: every flight slowest first
// (the top slowest when top > 0, only the one named id when id is set), and
// a rollup when more than one flight is shown.
func runFlights(in io.Reader, stdout, stderr io.Writer, asJSON bool, top int, id string) int {
	doc, err := parse(in)
	if err != nil {
		fmt.Fprintln(stderr, "traceview:", err)
		return 1
	}
	flights := doc.Flights
	if id != "" {
		kept := flights[:0]
		for _, tr := range flights {
			if tr.ID == id {
				kept = append(kept, tr)
			}
		}
		flights = kept
		if len(flights) == 0 {
			fmt.Fprintf(stderr, "traceview: no flight %q in input\n", id)
			return 1
		}
	}
	// Slowest first: the incident view leads with the worst transfer.
	sort.SliceStable(flights, func(i, j int) bool { return flights[i].TotalWallNs > flights[j].TotalWallNs })
	if top > 0 && len(flights) > top {
		flights = flights[:top]
	}

	if asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(flights); err != nil {
			fmt.Fprintln(stderr, "traceview:", err)
			return 1
		}
		return 0
	}
	for i, tr := range flights {
		if i > 0 {
			fmt.Fprintln(stdout)
		}
		renderFlight(stdout, tr)
	}
	if len(flights) > 1 {
		fmt.Fprintln(stdout)
		renderRollup(stdout, flights)
	}
	return 0
}

// ms renders nanoseconds as milliseconds.
func ms(ns int64) string { return fmt.Sprintf("%.3fms", float64(ns)/1e6) }

// renderFlight prints one flight's timeline and attribution.
func renderFlight(w io.Writer, tr flightTrace) {
	head := fmt.Sprintf("flight %s  state=%s", tr.ID, tr.State)
	if tr.FailureClass != "" {
		head += "  class=" + tr.FailureClass
	}
	if tr.Tenant != "" {
		head += "  tenant=" + tr.Tenant
	}
	head += fmt.Sprintf("  retries=%d  total=%s (%d ticks)", tr.Retries, ms(tr.TotalWallNs), tr.TotalTicks)
	fmt.Fprintln(w, head)

	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "  seq\tt+wall\ttick\tevent\tdetail")
	// Timestamps render relative to the flight's first event (admission).
	base := int64(0)
	if len(tr.Events) > 0 {
		base = tr.Events[0].WallNs
	}
	for _, ev := range tr.Events {
		detail := ev.Note
		if len(ev.Detail) > 0 {
			keys := make([]string, 0, len(ev.Detail))
			for k := range ev.Detail {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			parts := make([]string, 0, len(keys)+1)
			if detail != "" {
				parts = append(parts, detail)
			}
			for _, k := range keys {
				parts = append(parts, fmt.Sprintf("%s=%d", k, ev.Detail[k]))
			}
			detail = strings.Join(parts, " ")
		}
		fmt.Fprintf(tw, "  %d\t%s\t%d\t%s\t%s\n", ev.Seq, ms(ev.WallNs-base), ev.Tick, ev.Kind, detail)
	}
	tw.Flush()

	if len(tr.Segments) > 0 {
		tw = tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "  attribution\twall\tshare\tticks")
		for _, seg := range tr.Segments {
			share := 0.0
			if tr.TotalWallNs > 0 {
				share = 100 * float64(seg.WallNs) / float64(tr.TotalWallNs)
			}
			fmt.Fprintf(tw, "  %s\t%s\t%.1f%%\t%d\n", seg.Class, ms(seg.WallNs), share, seg.Ticks)
		}
		tw.Flush()
	}
}

// renderRollup prints the cross-flight attribution totals of a bundle.
func renderRollup(w io.Writer, flights []flightTrace) {
	segNs := map[string]int64{}
	var totalNs int64
	for _, tr := range flights {
		totalNs += tr.TotalWallNs
		for _, seg := range tr.Segments {
			segNs[seg.Class] += seg.WallNs
		}
	}
	classes := make([]string, 0, len(segNs))
	for class := range segNs {
		classes = append(classes, class)
	}
	sort.Slice(classes, func(i, j int) bool { return segNs[classes[i]] > segNs[classes[j]] })
	fmt.Fprintf(w, "attribution rollup over %d flights  total=%s\n", len(flights), ms(totalNs))
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "  class\twall\tshare")
	for _, class := range classes {
		share := 0.0
		if totalNs > 0 {
			share = 100 * float64(segNs[class]) / float64(totalNs)
		}
		fmt.Fprintf(tw, "  %s\t%s\t%.1f%%\n", class, ms(segNs[class]), share)
	}
	tw.Flush()
}
