// Command faultsim runs the fault-intensity resilience sweep: SurfNet against
// the Raw and purification-2 baselines on the sufficient/good scenario while
// stochastic fiber crashes, server outages, correlated regional failures, and
// fidelity drift strike with a swept intensity. It reports, per cell, the
// standard fidelity/latency/throughput metrics plus the delivered fraction and
// the recovery behaviour (local reroutes, epoch re-plans, skipped
// corrections).
//
// Usage:
//
//	faultsim [-intensities 0,0.5,1,2,4,8] [-trials N] [-requests K] [-seed S] [-greedy]
//	         [-backoff SLOTS] [-backoff-max SLOTS] [-replan-fails N] [-replan-epoch SLOTS]
//	         [-script SLOT:fiber|node:ID:DURATION,...]
//	         [-workers N] [-listen ADDR] [-log-level LEVEL] [-metrics-out FILE]
//	         [-trace-out FILE] [-cpuprofile FILE] [-memprofile FILE]
//
// -backoff enables exponential retry backoff for blocked code parts (0 keeps
// the legacy every-slot retry); -replan-fails triggers a full epoch re-plan
// over the surviving topology after that many consecutive recovery failures.
// -script adds an exact outage timetable on top of every swept intensity, for
// reproducible what-if runs ("cut fiber 3 at slot 40 for 60 slots" is
// 40:fiber:3:60).
//
// -workers sizes the deterministic trial pool (default GOMAXPROCS); results
// are identical for every value, faults included.
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

// parseIntensities parses the comma-separated -intensities value.
func parseIntensities(arg string) ([]float64, error) {
	if strings.TrimSpace(arg) == "" {
		return nil, nil // nil selects the default sweep
	}
	var out []float64
	for _, part := range strings.Split(arg, ",") {
		x, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, fmt.Errorf("bad intensity %q: %v", part, err)
		}
		if x < 0 {
			return nil, fmt.Errorf("negative intensity %v", x)
		}
		out = append(out, x)
	}
	return out, nil
}

func run() (exit int) {
	intensities := flag.String("intensities", "", "comma-separated fault intensities (empty: 0,0.5,1,2,4,8)")
	trials := flag.Int("trials", 12, "random networks per sweep cell")
	requests := flag.Int("requests", 8, "communication requests per trial")
	maxMsgs := flag.Int("messages", 3, "maximum surface codes per request")
	seed := flag.Uint64("seed", 1, "root random seed")
	greedy := flag.Bool("greedy", false, "use the greedy scheduler instead of LP relaxation + rounding")
	backoff := flag.Int("backoff", 2, "initial recovery retry backoff in slots (0: retry every slot)")
	backoffMax := flag.Int("backoff-max", 0, "backoff ceiling in slots (0: default 32)")
	replanFails := flag.Int("replan-fails", 4, "consecutive recovery failures before an epoch re-plan (0: never re-plan)")
	replanEpoch := flag.Int("replan-epoch", 0, "minimum slots between re-plans (0: default 50)")
	scriptArg := flag.String("script", "", "scripted outage timetable: SLOT:fiber|node:ID:DURATION,... applied at every intensity")
	var obs cliutil.Observability
	obs.Register(flag.CommandLine)
	flag.Parse()

	if err := obs.Start(); err != nil {
		slog.Error("faultsim: startup failed", "err", err)
		return 1
	}
	defer cliutil.ExitOnFinishError(&obs, &exit)

	xs, err := parseIntensities(*intensities)
	if err != nil {
		slog.Error("faultsim: bad -intensities", "err", err)
		return 1
	}
	script, err := surfnet.ParseFaultScript(*scriptArg)
	if err != nil {
		slog.Error("faultsim: bad -script", "err", err)
		return 1
	}

	cfg := surfnet.DefaultExperiments()
	cfg.Context = obs.Context()
	cfg.Trials = *trials
	cfg.Requests = *requests
	cfg.MaxMessages = *maxMsgs
	cfg.Seed = *seed
	cfg.UseLP = !*greedy
	cfg.Workers = obs.Workers
	cfg.Metrics = obs.Registry
	cfg.Tracer = obs.TracerOrNil()
	cfg.Progress = obs.Progress
	cfg.Engine.RecoveryBackoff = *backoff
	cfg.Engine.RecoveryBackoffMax = *backoffMax
	cfg.Engine.ReplanAfterFails = *replanFails
	cfg.Engine.ReplanEpoch = *replanEpoch
	if script != nil {
		cfg.Engine.Faults = &surfnet.FaultProfile{Script: script}
	}

	prev := obs.Registry.Snapshot()
	slog.Info("running resilience sweep", "trials", cfg.Trials, "workers", cfg.Workers)
	rows, err := surfnet.Resilience(cfg, xs)
	if err != nil {
		slog.Error("faultsim: sweep failed", "err", err)
		return 1
	}
	fmt.Println("Resilience: designs under swept fault intensity (sufficient/good scenario)")
	fmt.Print(surfnet.FormatResilience(rows))
	if obs.Registry != nil {
		printDelta(obs.Registry.Snapshot().CounterDelta(prev))
	}
	return 0
}

// printDelta reports the sweep's counter increments, sorted for stable output.
func printDelta(delta map[string]int64) {
	if len(delta) == 0 {
		return
	}
	names := make([]string, 0, len(delta))
	for name := range delta {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Println("\ntelemetry delta:")
	for _, name := range names {
		fmt.Printf("  %-32s %d\n", name, delta[name])
	}
}
