package experiments

import (
	"math"
	"reflect"
	"testing"

	"surfnet/internal/decoder"
)

// TestFig8BatchWorkerInvariance pins the packed engine's stream contract on
// the threshold study: with Batch set, rates must be identical for every
// worker count because each 64-lane batch derives its randomness from the
// batch index, never the worker id. The trial count deliberately leaves a
// partial tail batch.
func TestFig8BatchWorkerInvariance(t *testing.T) {
	cfg := DefaultFig8Config()
	cfg.Batch = true
	cfg.Trials = 150 // 2 full batches + a 22-lane tail
	cfg.Distances = []int{3, 5}
	cfg.PauliRates = []float64{0.06}
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
			t.Fatalf("workers=%d: batch points diverge from serial run\ngot  %+v\nwant %+v", w, points, want)
		}
	}
}

// TestFig8BatchMatchesScalarStatistically sanity-checks the packed rates
// against the scalar pipeline on the same cell: the two stream families
// differ, so rates agree statistically, not bitwise. With 1920 trials the
// binomial sigma at rate ~0.15 is ~0.008; 6 sigma bounds the flake rate
// far below CI noise.
func TestFig8BatchMatchesScalarStatistically(t *testing.T) {
	cfg := DefaultFig8Config()
	cfg.Trials = 1920
	cfg.Distances = []int{3}
	cfg.PauliRates = []float64{0.06}
	cfg.Decoders = []decoder.Decoder{decoder.UnionFind{}}

	scalar, err := Fig8(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Batch = true
	packed, err := Fig8(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(scalar) != 1 || len(packed) != 1 {
		t.Fatalf("unexpected point counts: %d scalar, %d packed", len(scalar), len(packed))
	}
	diff := packed[0].LogicalRate - scalar[0].LogicalRate
	if diff < 0 {
		diff = -diff
	}
	// Combined two-sample binomial bound around the scalar estimate.
	m := scalar[0].LogicalRate
	sigma := math.Sqrt(2 * m * (1 - m) / float64(cfg.Trials))
	if diff > 6*sigma {
		t.Fatalf("packed rate %.4f vs scalar %.4f: |diff| %.4f exceeds 6 sigma (%.4f)",
			packed[0].LogicalRate, scalar[0].LogicalRate, diff, 6*sigma)
	}
}
