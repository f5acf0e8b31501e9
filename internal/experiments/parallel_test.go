package experiments

import (
	"bytes"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"surfnet/internal/decoder"
	"surfnet/internal/routing"
	"surfnet/internal/telemetry"
	"surfnet/internal/topology"
)

// workerCounts are the pool sizes every invariance test compares: serial,
// a small pool, an oversized pool, and the GOMAXPROCS default.
var workerCounts = []int{1, 3, 16, 0}

// TestFig6aWorkerInvariance pins the sim engine's central contract on the
// network experiments: every cell of Fig. 6(a) is field-for-field identical
// for any worker count, because trial randomness derives from the seed and
// trial index and the reduction runs in trial order.
func TestFig6aWorkerInvariance(t *testing.T) {
	cfg := tinyConfig()
	cfg.Trials = 5
	var want []Fig6aRow
	for _, w := range workerCounts {
		cfg.Workers = w
		rows, err := Fig6a(cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if want == nil {
			want = rows
			continue
		}
		if !reflect.DeepEqual(rows, want) {
			t.Fatalf("workers=%d: rows diverge from serial run\ngot  %+v\nwant %+v", w, rows, want)
		}
	}
}

// TestFig6aTraceWorkerInvariance pins the trace-determinism contract of the
// docs. At one worker a Fig. 6(a) JSONL trace is byte-identical run to run.
// At any other worker count, trials emit concurrently, so the lines
// interleave differently but are the same lines: sorted, they equal the
// one-worker trace's.
func TestFig6aTraceWorkerInvariance(t *testing.T) {
	trace := func(workers int) []byte {
		cfg := tinyConfig()
		cfg.Trials = 4
		cfg.Workers = workers
		var buf bytes.Buffer
		tr := telemetry.NewJSONL(&buf)
		cfg.Tracer = tr
		if _, err := Fig6a(cfg); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if err := tr.Flush(); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return buf.Bytes()
	}
	sortedLines := func(b []byte) []string {
		lines := strings.Split(string(b), "\n")
		slices.Sort(lines)
		return lines
	}

	serial := trace(1)
	if len(serial) == 0 {
		t.Fatal("one-worker trace is empty")
	}
	if again := trace(1); !bytes.Equal(again, serial) {
		t.Fatalf("two one-worker traces differ (%d and %d bytes)", len(serial), len(again))
	}
	want := sortedLines(serial)
	for _, w := range []int{2, 3, runtime.GOMAXPROCS(0)} {
		if got := sortedLines(trace(w)); !slices.Equal(got, want) {
			t.Fatalf("workers=%d: trace lines differ from the one-worker trace's (%d lines against %d)", w, len(got), len(want))
		}
	}
}

// TestFig8WorkerInvariance pins the same contract on the decoder threshold
// study, whose trials run through the per-worker scratch arenas.
func TestFig8WorkerInvariance(t *testing.T) {
	cfg := DefaultFig8Config()
	cfg.Trials = 30
	cfg.Distances = []int{5}
	cfg.PauliRates = []float64{0.08}
	var want []Fig8Point
	for _, w := range workerCounts {
		cfg.Workers = w
		points, err := Fig8(cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if want == nil {
			want = points
			continue
		}
		if !reflect.DeepEqual(points, want) {
			t.Fatalf("workers=%d: points diverge from serial run\ngot  %+v\nwant %+v", w, points, want)
		}
	}
}

// TestAblationWorkerInvariance pins the contract on an ablation study that
// mixes network cells (AdaptiveStudy) and on a decoder study
// (ErasureGrowthStudy).
func TestAblationWorkerInvariance(t *testing.T) {
	cfg := tinyConfig()
	cfg.Trials = 4
	var wantRows []AblationRow
	var wantPts []DecoderPoint
	for _, w := range workerCounts {
		cfg.Workers = w
		rows, err := AdaptiveStudy(cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		pts, err := ErasureGrowthStudy(DecoderStudyConfig{Seed: 1, Trials: 25, Workers: w})
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if wantRows == nil {
			wantRows, wantPts = rows, pts
			continue
		}
		if !reflect.DeepEqual(rows, wantRows) {
			t.Fatalf("workers=%d: adaptive rows diverge from serial run", w)
		}
		if !reflect.DeepEqual(pts, wantPts) {
			t.Fatalf("workers=%d: erasure points diverge from serial run", w)
		}
	}
}

// TestRunCellEmptyTrials is the divisor regression test: when every trial
// schedules zero codes, Throughput must still average over all trials while
// Fidelity and Latency carry no samples at all — an empty trial has no
// communication to measure, and folding placeholder zeros in would deflate
// both means.
func TestRunCellEmptyTrials(t *testing.T) {
	cfg := tinyConfig()
	cfg.Trials = 4
	cfg.UseLP = false // greedy admission makes the rejection path direct
	p := routing.DefaultParams(routing.SurfNet)
	// Thresholds far below any path's accumulated noise with no correction
	// capacity (Omega = 0): every request is rejected, every trial is empty.
	p.Omega = 0
	p.CoreThreshold = 1e-9
	p.TotalThreshold = 1e-9
	spec := trialSpec{
		params:   topology.DefaultParams(topology.Sufficient, topology.GoodConnection),
		design:   routing.SurfNet,
		routing:  p,
		requests: cfg.Requests,
		maxMsgs:  cfg.MaxMessages,
	}
	cell, err := runCell(cfg, spec, "test/empty")
	if err != nil {
		t.Fatal(err)
	}
	if cell.Trials != cfg.Trials || cell.EmptyTrials != cfg.Trials {
		t.Fatalf("trials = %d empty = %d, want both %d", cell.Trials, cell.EmptyTrials, cfg.Trials)
	}
	if cell.Throughput.N() != cfg.Trials {
		t.Fatalf("throughput has %d samples, want %d", cell.Throughput.N(), cfg.Trials)
	}
	if cell.Throughput.Mean() != 0 {
		t.Fatalf("all-rejected throughput mean = %v, want 0", cell.Throughput.Mean())
	}
	if cell.Fidelity.N() != 0 || cell.Latency.N() != 0 {
		t.Fatalf("empty trials leaked into fidelity (%d) or latency (%d) samples",
			cell.Fidelity.N(), cell.Latency.N())
	}
}

// TestRunCellMixedEmptyTrials drives a cell where some trials schedule codes
// and some do not, and checks the divisor contract directly: Throughput.N
// counts every trial, Fidelity.N and Latency.N only the non-empty ones.
func TestRunCellMixedEmptyTrials(t *testing.T) {
	cfg := tinyConfig()
	cfg.Trials = 12
	cfg.UseLP = false
	// Mid-range thresholds with no correction capacity reject all requests
	// in some trials but not others.
	p := routing.DefaultParams(routing.SurfNet)
	p.Omega = 0
	p.CoreThreshold = 0.6
	p.TotalThreshold = 0.6
	spec := trialSpec{
		params:   topology.DefaultParams(topology.Insufficient, topology.PoorConnection),
		design:   routing.SurfNet,
		routing:  p,
		requests: 2,
		maxMsgs:  1,
	}
	cell, err := runCell(cfg, spec, "test/mixed")
	if err != nil {
		t.Fatal(err)
	}
	if cell.Trials != cfg.Trials {
		t.Fatalf("trials = %d, want %d", cell.Trials, cfg.Trials)
	}
	if cell.Throughput.N() != cfg.Trials {
		t.Fatalf("throughput has %d samples, want %d", cell.Throughput.N(), cfg.Trials)
	}
	if cell.EmptyTrials == 0 || cell.EmptyTrials == cfg.Trials {
		t.Fatalf("scenario no longer mixes: %d/%d empty trials", cell.EmptyTrials, cfg.Trials)
	}
	ran := cfg.Trials - cell.EmptyTrials
	if cell.Fidelity.N() != ran || cell.Latency.N() != ran {
		t.Fatalf("fidelity/latency have %d/%d samples, want %d (= %d trials - %d empty)",
			cell.Fidelity.N(), cell.Latency.N(), ran, cfg.Trials, cell.EmptyTrials)
	}
}

// TestDecoderStudyConfigDefaults pins the interactive defaults.
func TestDecoderStudyConfigDefaults(t *testing.T) {
	cfg := DefaultDecoderStudyConfig()
	if cfg.Seed != 1 || cfg.Trials != 200 || cfg.Workers != 0 {
		t.Fatalf("unexpected defaults %+v", cfg)
	}
}

// TestFig8ScratchReuseMatchesFreshDecoders cross-checks the arena path at
// the experiment level: the same Fig. 8 point computed twice in a row (same
// process, reused worker scratch) must agree exactly.
func TestFig8ScratchReuseMatchesFreshDecoders(t *testing.T) {
	cfg := DefaultFig8Config()
	cfg.Trials = 25
	cfg.Distances = []int{3}
	cfg.PauliRates = []float64{0.06}
	cfg.Decoders = []decoder.Decoder{decoder.UnionFind{}, decoder.SurfNet{}}
	first, err := Fig8(cfg)
	if err != nil {
		t.Fatal(err)
	}
	second, err := Fig8(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("repeated runs diverge: %+v vs %+v", first, second)
	}
}
