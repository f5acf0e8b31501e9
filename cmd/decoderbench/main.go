// Command decoderbench regenerates Fig. 8 of the paper: the Pauli error
// threshold of surface codes under the Union-Find decoder and the SurfNet
// Decoder, with a fixed erasure rate and error rates halved on the Core part.
// It always reports per-decoder wall-time quantiles collected from the
// telemetry histograms.
//
// Usage:
//
//	decoderbench [-trials N] [-distances 9,11,13,15] [-rates 0.05,0.06] [-erasure 0.15]
//	             [-seed S] [-mwpm] [-batch] [-workers N] [-listen ADDR] [-log-level LEVEL]
//	             [-metrics-out FILE] [-trace-out FILE] [-cpuprofile FILE] [-memprofile FILE]
//
// -workers sizes the deterministic trial pool (default GOMAXPROCS); results
// are identical for every value. -batch switches to the bit-packed 64-lane
// engine (internal/batch): ≥5× per-trial throughput in erasure-dominated
// regimes (≈1.4–1.8× at the paper's mixed operating point, where most lanes
// fall back to the scalar decoder), rates statistically equivalent to (but not
// bitwise reproducing) the scalar sweep, UnionFind and default SurfNet
// decoders only.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"sort"
	"strconv"
	"strings"

	"surfnet"
	"surfnet/internal/cliutil"
)

func main() {
	os.Exit(run())
}

func run() (exit int) {
	trials := flag.Int("trials", 300, "Monte-Carlo trials per (decoder, distance, rate) point")
	distances := flag.String("distances", "9,11,13,15", "comma-separated code distances")
	rates := flag.String("rates", "", "comma-separated Pauli rates (default: the paper's 0.050-0.085 sweep)")
	erasure := flag.Float64("erasure", 0.15, "fixed erasure rate (paper: 15%)")
	seed := flag.Uint64("seed", 1, "root random seed")
	mwpm := flag.Bool("mwpm", false, "additionally evaluate the modified MWPM decoder (Algorithm 1)")
	batchMode := flag.Bool("batch", false, "decode 64 trials per machine word on the packed engine (UnionFind and default SurfNet only; incompatible with -mwpm)")
	var obs cliutil.Observability
	obs.Register(flag.CommandLine)
	flag.Parse()

	if err := obs.Start(); err != nil {
		slog.Error("decoderbench: startup failed", "err", err)
		return 1
	}
	// The latency report below always needs a registry, -metrics-out or not.
	obs.ForceMetrics()
	defer cliutil.ExitOnFinishError(&obs, &exit)

	cfg := surfnet.DefaultFig8()
	cfg.Context = obs.Context()
	cfg.Trials = *trials
	cfg.ErasureRate = *erasure
	cfg.Seed = *seed
	cfg.Workers = obs.Workers
	cfg.Metrics = obs.Registry
	cfg.Progress = obs.Progress
	var ds []int
	for _, part := range strings.Split(*distances, ",") {
		d, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			slog.Error("decoderbench: bad -distances entry", "entry", part, "err", err)
			return 1
		}
		ds = append(ds, d)
	}
	cfg.Distances = ds
	if *rates != "" {
		var ps []float64
		for _, part := range strings.Split(*rates, ",") {
			p, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
			if err != nil {
				slog.Error("decoderbench: bad -rates entry", "entry", part, "err", err)
				return 1
			}
			ps = append(ps, p)
		}
		cfg.PauliRates = ps
	}
	if *mwpm {
		if *batchMode {
			slog.Error("decoderbench: -mwpm is incompatible with -batch (the packed engine supports UnionFind and default SurfNet only)")
			return 1
		}
		cfg.Decoders = append(cfg.Decoders, surfnet.NewMWPMDecoder())
	}
	cfg.Batch = *batchMode

	slog.Info("running threshold study", "trials", cfg.Trials, "distances", *distances, "workers", cfg.Workers, "batch", cfg.Batch)
	points, err := surfnet.Fig8(cfg)
	if err != nil {
		slog.Error("decoderbench: study failed", "err", err)
		return 1
	}
	fmt.Printf("Fig 8: logical error rate vs Pauli rate (erasure %.0f%%, Core rates halved, %d trials/point)\n",
		*erasure*100, *trials)
	fmt.Print(surfnet.FormatFig8(points))
	fmt.Println()
	printLatencies(obs.Registry.Snapshot())
	return 0
}

// printLatencies renders the per-decoder decode-time quantiles recorded under
// decoder.<name>.decode_seconds during the study.
func printLatencies(snap surfnet.MetricsSnapshot) {
	const prefix, suffix = "decoder.", ".decode_seconds"
	var names []string
	for name := range snap.Histograms {
		if strings.HasPrefix(name, prefix) && strings.HasSuffix(name, suffix) {
			names = append(names, name)
		}
	}
	if len(names) == 0 {
		return
	}
	sort.Strings(names)
	fmt.Println("decode wall time per invocation:")
	fmt.Printf("%-14s %10s %12s %12s %12s %12s\n", "decoder", "decodes", "mean", "p50", "p99", "max")
	for _, name := range names {
		h := snap.Histograms[name]
		dec := strings.TrimSuffix(strings.TrimPrefix(name, prefix), suffix)
		mean := 0.0
		if h.Count > 0 {
			mean = h.Sum / float64(h.Count)
		}
		fmt.Printf("%-14s %10d %12s %12s %12s %12s\n",
			dec, h.Count, fmtSeconds(mean), fmtSeconds(h.P50), fmtSeconds(h.P99), fmtSeconds(h.Max))
	}
}

// fmtSeconds picks a readable unit for sub-second durations.
func fmtSeconds(s float64) string {
	switch {
	case s >= 1:
		return fmt.Sprintf("%.2fs", s)
	case s >= 1e-3:
		return fmt.Sprintf("%.2fms", s*1e3)
	case s >= 1e-6:
		return fmt.Sprintf("%.2fµs", s*1e6)
	default:
		return fmt.Sprintf("%.0fns", s*1e9)
	}
}
