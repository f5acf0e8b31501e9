// Command ablations runs the ablation studies of the design choices the
// paper calls out: QoS-adaptive code sizes, the SurfNet Decoder step size,
// the Core geometry, the erasure growth mode, and the wait-for-complete
// trade-off of §V-B.
//
// Usage:
//
//	ablations [-study adaptive|stepsize|decoders|corelayout|erasure|scheduler|wait|all]
//	          [-trials N] [-seed S] [-workers N] [-listen ADDR] [-log-level LEVEL]
//	          [-metrics-out F] [-trace-out F] [-cpuprofile F] [-memprofile F]
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"

	"surfnet/internal/cliutil"
	"surfnet/internal/experiments"
)

func main() {
	os.Exit(run())
}

func run() (exit int) {
	study := flag.String("study", "all", "study to run: adaptive, stepsize, decoders, corelayout, erasure, scheduler, wait, or all")
	trials := flag.Int("trials", 2000, "Monte-Carlo trials per decoder point / networks per cell (scaled down x100 for network studies)")
	seed := flag.Uint64("seed", 1, "root random seed")
	var obs cliutil.Observability
	obs.Register(flag.CommandLine)
	flag.Parse()

	if err := obs.Start(); err != nil {
		slog.Error("ablations: startup failed", "err", err)
		return 1
	}
	defer cliutil.ExitOnFinishError(&obs, &exit)

	netCfg := experiments.DefaultConfig()
	netCfg.Context = obs.Context()
	netCfg.Seed = *seed
	netCfg.Trials = max(2, *trials/100)
	netCfg.Requests = 6
	netCfg.Workers = obs.Workers
	netCfg.Metrics = obs.Registry
	netCfg.Tracer = obs.TracerOrNil()
	netCfg.Progress = obs.Progress

	decCfg := experiments.DecoderStudyConfig{
		Context:  obs.Context(),
		Seed:     *seed,
		Trials:   *trials,
		Workers:  obs.Workers,
		Metrics:  obs.Registry,
		Progress: obs.Progress,
	}

	runStudy := func(name string) error {
		switch name {
		case "adaptive":
			rows, err := experiments.AdaptiveStudy(netCfg)
			if err != nil {
				return err
			}
			fmt.Println("Adaptive code sizing (insufficient facilities):")
			fmt.Print(experiments.FormatAblation(rows))
		case "stepsize":
			pts, err := experiments.StepSizeStudy(decCfg, nil)
			if err != nil {
				return err
			}
			fmt.Println("SurfNet Decoder step size r (d=11, p=7%, erasure 15%):")
			fmt.Print(experiments.FormatDecoderPoints(pts))
		case "decoders":
			pts, err := experiments.DecoderFamilyStudy(decCfg)
			if err != nil {
				return err
			}
			fmt.Println("Decoder family (d=11, p=7%, erasure 15%):")
			fmt.Print(experiments.FormatDecoderPoints(pts))
		case "corelayout":
			layouts, err := experiments.CoreLayoutStudy(decCfg)
			if err != nil {
				return err
			}
			fmt.Println("Core geometry (d=11, p=7%, erasure 15%):")
			for _, l := range layouts {
				fmt.Printf("layout: %s\n%s", l.Layout, experiments.FormatDecoderPoints(l.Points))
			}
		case "erasure":
			pts, err := experiments.ErasureGrowthStudy(decCfg)
			if err != nil {
				return err
			}
			fmt.Println("Erasure handling in the SurfNet Decoder (d=11, p=7%, erasure 15%):")
			fmt.Print(experiments.FormatDecoderPoints(pts))
		case "scheduler":
			rows, err := experiments.SchedulerStudy(netCfg)
			if err != nil {
				return err
			}
			fmt.Println("Scheduler: LP relaxation + rounding vs greedy (sufficient facilities):")
			fmt.Print(experiments.FormatAblation(rows))
		case "wait":
			rows, err := experiments.WaitForCompleteStudy(netCfg)
			if err != nil {
				return err
			}
			fmt.Println("Data-transfer/EC parallelism trade-off (lossy channels):")
			fmt.Print(experiments.FormatAblation(rows))
		default:
			return fmt.Errorf("unknown study %q", name)
		}
		fmt.Println()
		return nil
	}

	studies := []string{*study}
	if *study == "all" {
		studies = []string{"adaptive", "stepsize", "decoders", "corelayout", "erasure", "scheduler", "wait"}
	}
	for _, s := range studies {
		slog.Info("running study", "study", s, "workers", obs.Workers)
		if err := runStudy(s); err != nil {
			slog.Error("ablations: study failed", "study", s, "err", err)
			return 1
		}
	}
	return 0
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
