package telemetry

// SpanSet allocates the hierarchical spans of one traced scope — in the
// engine, one transfer — and emits them to the scope's Tracer as ordinary
// "span" events on the same JSONL stream as the flat slot events. Span ids
// are assigned sequentially in Start order, so a sequentially executed scope
// produces the same ids on every run: traces stay deterministic and the ids
// carry no wall-clock or scheduling information.
//
// Spans nest by parent id (0 is the root sentinel: a span with Parent 0 has
// no parent). Durations are measured in slots, the engine's causal clock, so
// a transfer's latency decomposes exactly into its epoch, slot, and decode
// spans; wall-clock decode time stays in the telemetry histograms
// (decoder.<name>.decode_seconds) where nondeterminism belongs.
//
// A SpanSet is not safe for concurrent use; each traced scope owns its own.
// The nil *SpanSet (returned by NewSpanSet over a nil Tracer) is the no-op
// default: Start returns 0 and End does nothing.
type SpanSet struct {
	t         Tracer
	req, code int
	spans     []spanRec
}

type spanRec struct {
	name      string
	parent    int
	startSlot int
	ended     bool
}

// NewSpanSet returns a span allocator emitting to t, tagging every span with
// the communication's request and code indices (negative omits them). A nil
// t yields a nil SpanSet, keeping the untraced hot path to one branch.
func NewSpanSet(t Tracer, req, code int) *SpanSet {
	if t == nil {
		return nil
	}
	return &SpanSet{t: t, req: req, code: code}
}

// Start opens a span named name under parent (0 for a root span) beginning
// at slot, and returns its id (>= 1). On a nil SpanSet it returns 0, which
// is safe to pass anywhere a parent or span id is expected.
func (s *SpanSet) Start(name string, parent, slot int) int {
	if s == nil {
		return 0
	}
	s.spans = append(s.spans, spanRec{name: name, parent: parent, startSlot: slot})
	return len(s.spans)
}

// End closes span id at endSlot and emits one "span" event carrying the
// span's name, id, parent, start slot, and slot duration, plus any extra
// attribute pairs. Unknown ids and double Ends are ignored, so span cleanup
// on error paths needs no bookkeeping.
func (s *SpanSet) End(id, endSlot int, kv ...any) {
	if s == nil || id < 1 || id > len(s.spans) {
		return
	}
	rec := &s.spans[id-1]
	if rec.ended {
		return
	}
	rec.ended = true
	dur := endSlot - rec.startSlot
	if dur < 0 {
		dur = 0
	}
	attrs := append([]any{
		"name", rec.name, "span", id, "parent", rec.parent,
		"start", rec.startSlot, "dur", dur,
	}, kv...)
	ev := Ev("span", attrs...)
	ev.Slot, ev.Req, ev.Code = endSlot, s.req, s.code
	s.t.Emit(ev)
}

// Open reports how many started spans have not been ended yet — zero after a
// well-formed scope closes.
func (s *SpanSet) Open() int {
	if s == nil {
		return 0
	}
	open := 0
	for i := range s.spans {
		if !s.spans[i].ended {
			open++
		}
	}
	return open
}
