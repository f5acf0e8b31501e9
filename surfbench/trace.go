package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// layer's public function. Spans of one transfer or trial share an id.
type span struct {
	name   int32
	parent int32 // index of the enclosing span; -1 for a root span
	id     int64
	start  int64 // ns since the tracer's origin, monotonic clock
	end    int64
}

// tracer keeps spans in memory; write saves them when the run ends. A nil
// tracer records nothing, so untraced code paths pass nil.
type tracer struct {
	origin time.Time
	names  []string
	index  map[string]int32
	spans  []span
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), index: make(map[string]int32)}
}

// begin opens a span and returns its handle for end.
func (t *tracer) begin(name string, parent int32, id int64) int32 {
	if t == nil {
		return -1
	}
	n, ok := t.index[name]
	if !ok {
		n = int32(len(t.names))
		t.names = append(t.names, name)
		t.index[name] = n
	}
	t.spans = append(t.spans, span{name: n, parent: parent, id: id, start: int64(time.Since(t.origin))})
	return int32(len(t.spans) - 1)
}

// setID sets a span's id once the call it times has revealed it.
func (t *tracer) setID(h int32, id int64) {
	if t != nil && h >= 0 {
		t.spans[h].id = id
	}
}

// end closes a span and returns its duration in seconds.
func (t *tracer) end(h int32) float64 {
	if t == nil || h < 0 {
		return 0
	}
	s := &t.spans[h]
	s.end = int64(time.Since(t.origin))
	return float64(s.end-s.start) / 1e9
}

// selfSeconds returns, for every span of the given name, its duration minus
// the time its direct children cover. Children run on the same goroutine
// inside their parent, so they never overlap and their durations add.
func (t *tracer) selfSeconds(name string) []float64 {
	if t == nil {
		return nil
	}
	n, ok := t.index[name]
	if !ok {
		return nil
	}
	child := make(map[int32]int64)
	for _, s := range t.spans {
		if s.parent >= 0 && t.spans[s.parent].name == n {
			child[s.parent] += s.end - s.start
		}
	}
	var out []float64
	for i, s := range t.spans {
		if s.name == n {
			out = append(out, float64(s.end-s.start-child[int32(i)])/1e9)
		}
	}
	return out
}

// secondsByID sums the durations of a name's spans per span id.
func (t *tracer) secondsByID(name string) map[int64]float64 {
	out := make(map[int64]float64)
	if t == nil {
		return out
	}
	n, ok := t.index[name]
	if !ok {
		return out
	}
	for _, s := range t.spans {
		if s.name == n {
			out[s.id] += float64(s.end-s.start) / 1e9
		}
	}
	return out
}

// spanRecord is the on-disk form of a span.
type spanRecord struct {
	Name    string `json:"name"`
	ID      int64  `json:"id"`
	Parent  int32  `json:"parent"`
	Index   int    `json:"index"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// write saves the spans as JSON lines to dir/trace-<workload>.jsonl,
// replacing the previous run's file for that workload.
func (t *tracer) write(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i, s := range t.spans {
		if err := enc.Encode(spanRecord{
			Name: t.names[s.name], ID: s.id, Parent: s.parent, Index: i,
			StartNs: s.start, EndNs: s.end,
		}); err != nil {
			f.Close()
			return "", fmt.Errorf("writing %s: %w", path, err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", fmt.Errorf("writing %s: %w", path, err)
	}
	return path, f.Close()
}
