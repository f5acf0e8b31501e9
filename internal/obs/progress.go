package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Tracker aggregates live sweep progress for the /status endpoint. The
// experiment harness declares a Cell per sweep cell as it reaches it, the
// trial pool reports completions into the cell (internal/sim threads the
// cell through the run context), and Status snapshots the whole sweep:
// per-cell completion, throughput in trials/sec, and the ETA over the trials
// declared so far.
//
// A nil *Tracker is the disabled default: StartCell returns a nil *Cell
// whose methods no-op, so the harness pays one branch when progress
// reporting is off.
type Tracker struct {
	mu      sync.Mutex
	cells   []*Cell
	started time.Time // first StartCell: rate excludes setup time
}

// NewTracker returns an empty progress tracker.
func NewTracker() *Tracker { return &Tracker{} }

// Cell tracks one sweep cell (one figure cell, one threshold point, one
// resilience intensity x design). Safe for concurrent use: the trial pool's
// workers all report into the same cell.
type Cell struct {
	label    string
	total    int64
	done     atomic.Int64
	finished atomic.Bool
}

// StartCell declares a sweep cell of the given expected trial count and
// returns its live handle. On a nil Tracker it returns nil, which is safe to
// use (and to compare against nil to skip wiring).
func (t *Tracker) StartCell(label string, trials int) *Cell {
	if t == nil {
		return nil
	}
	c := &Cell{label: label, total: int64(trials)}
	t.mu.Lock()
	if t.started.IsZero() {
		t.started = time.Now()
	}
	t.cells = append(t.cells, c)
	t.mu.Unlock()
	return c
}

// TrialDone records n completed trials. It implements the sim.Progress
// interface, so a *Cell threads straight into sim.WithProgress.
func (c *Cell) TrialDone(n int) {
	if c == nil || n <= 0 {
		return
	}
	c.done.Add(int64(n))
}

// Finish marks the cell complete. Idempotent.
func (c *Cell) Finish() {
	if c == nil {
		return
	}
	c.finished.Store(true)
}

// CellStatus is the frozen state of one sweep cell.
type CellStatus struct {
	Label  string `json:"label"`
	Done   int64  `json:"done"`
	Total  int64  `json:"total"`
	Active bool   `json:"active"`
}

// Status is the live progress report served at /status. TrialsTotal and the
// ETA cover the cells declared so far — sweeps declare cells as they reach
// them, so both grow as the sweep uncovers more work.
type Status struct {
	Ready         bool             `json:"ready"`
	UptimeSeconds float64          `json:"uptime_seconds"`
	CellsStarted  int              `json:"cells_started"`
	CellsDone     int              `json:"cells_done"`
	TrialsDone    int64            `json:"trials_done"`
	TrialsTotal   int64            `json:"trials_total"`
	TrialsPerSec  float64          `json:"trials_per_sec"`
	ETASeconds    float64          `json:"eta_seconds"`
	Cells         []CellStatus     `json:"cells,omitempty"`
	Counters      map[string]int64 `json:"counters,omitempty"`
	// Service embeds the resident daemon's snapshot (queue depth, admission
	// and shed counters, per-tenant accounting) when one is attached via
	// Server.SetServiceStatus; omitted in batch runs.
	Service any `json:"service,omitempty"`
}

// Status snapshots the tracker. On a nil Tracker it returns the zero Status.
func (t *Tracker) Status() Status {
	var st Status
	if t == nil {
		return st
	}
	t.mu.Lock()
	cells := append([]*Cell(nil), t.cells...)
	started := t.started
	t.mu.Unlock()
	for _, c := range cells {
		done := c.done.Load()
		finished := c.finished.Load()
		st.CellsStarted++
		if finished {
			st.CellsDone++
		}
		st.TrialsDone += done
		st.TrialsTotal += c.total
		st.Cells = append(st.Cells, CellStatus{
			Label: c.label, Done: done, Total: c.total, Active: !finished,
		})
	}
	if !started.IsZero() {
		if elapsed := time.Since(started).Seconds(); elapsed > 0 && st.TrialsDone > 0 {
			st.TrialsPerSec = float64(st.TrialsDone) / elapsed
		}
	}
	if st.TrialsPerSec > 0 && st.TrialsTotal > st.TrialsDone {
		st.ETASeconds = float64(st.TrialsTotal-st.TrialsDone) / st.TrialsPerSec
	}
	return st
}
