// Command surfnetsim regenerates the network experiments of the paper's
// evaluation section: the Raw-vs-SurfNet scenario comparison of Fig. 6(a),
// the parameter sweeps of Fig. 6(b.1-4), and the five-design fidelity
// comparison of Fig. 7.
//
// Usage:
//
//	surfnetsim -fig 6a|6b1|6b2|6b3|6b4|7|all [-trials N] [-requests K] [-seed S] [-greedy]
//	           [-workers N] [-listen ADDR] [-log-level LEVEL] [-metrics-out FILE]
//	           [-trace-out FILE] [-cpuprofile FILE] [-memprofile FILE]
//
// -workers sizes the deterministic trial pool (default GOMAXPROCS); results
// are identical for every value.
//
// -fig accepts a comma-separated list ("-fig 6a,7"). With -metrics-out the
// run prints a per-figure counter delta after each figure and writes the full
// JSON snapshot on exit; -trace-out streams every slot-level, routing, and
// span event as JSON Lines. -listen serves /metrics, /healthz, /readyz,
// /status, and /debug/pprof/ for the duration of the run.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"sort"
	"strings"

	"surfnet"
	"surfnet/internal/cliutil"
)

// validFigs lists the figure names in presentation order; "all" expands to
// every entry.
var validFigs = []string{"6a", "6b1", "6b2", "6b3", "6b4", "7"}

// parseFigs expands and validates a comma-separated -fig value upfront, so a
// typo fails before any experiment runs.
func parseFigs(arg string) ([]string, error) {
	valid := map[string]bool{}
	for _, f := range validFigs {
		valid[f] = true
	}
	var figs []string
	for _, part := range strings.Split(arg, ",") {
		name := strings.TrimSpace(part)
		switch {
		case name == "all":
			figs = append(figs, validFigs...)
		case valid[name]:
			figs = append(figs, name)
		default:
			return nil, fmt.Errorf("unknown figure %q (valid: %s, all)",
				name, strings.Join(validFigs, ", "))
		}
	}
	if len(figs) == 0 {
		return nil, fmt.Errorf("empty -fig (valid: %s, all)", strings.Join(validFigs, ", "))
	}
	return figs, nil
}

func main() {
	os.Exit(run())
}

func run() (exit int) {
	fig := flag.String("fig", "all", "comma-separated figures to regenerate: 6a, 6b1, 6b2, 6b3, 6b4, 7, or all")
	trials := flag.Int("trials", 12, "random networks per experiment cell (paper: 1080)")
	requests := flag.Int("requests", 8, "communication requests per trial")
	maxMsgs := flag.Int("messages", 3, "maximum surface codes per request")
	seed := flag.Uint64("seed", 1, "root random seed")
	greedy := flag.Bool("greedy", false, "use the greedy scheduler instead of LP relaxation + rounding")
	var obs cliutil.Observability
	obs.Register(flag.CommandLine)
	flag.Parse()

	if err := obs.Start(); err != nil {
		slog.Error("surfnetsim: startup failed", "err", err)
		return 1
	}
	defer cliutil.ExitOnFinishError(&obs, &exit)

	figs, err := parseFigs(*fig)
	if err != nil {
		slog.Error("surfnetsim: bad -fig", "err", err)
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

	runFig := func(name string) error {
		switch name {
		case "6a":
			rows, err := surfnet.Fig6a(cfg)
			if err != nil {
				return err
			}
			fmt.Println("Fig 6(a): Raw vs SurfNet across facility scenarios")
			fmt.Print(surfnet.FormatFig6a(rows))
		case "6b1":
			pts, err := surfnet.Fig6b1(cfg, nil)
			if err != nil {
				return err
			}
			fmt.Println("Fig 6(b.1): facility capacity sweep (SurfNet)")
			fmt.Print(surfnet.FormatSweep("capacity-factor", pts))
		case "6b2":
			pts, err := surfnet.Fig6b2(cfg, nil)
			if err != nil {
				return err
			}
			fmt.Println("Fig 6(b.2): entanglement generation rate sweep (SurfNet)")
			fmt.Print(surfnet.FormatSweep("entanglement-factor", pts))
		case "6b3":
			pts, err := surfnet.Fig6b3(cfg, nil)
			if err != nil {
				return err
			}
			fmt.Println("Fig 6(b.3): messages-per-request sweep (SurfNet)")
			fmt.Print(surfnet.FormatSweep("messages/request", pts))
		case "6b4":
			pts, err := surfnet.Fig6b4(cfg, nil)
			if err != nil {
				return err
			}
			fmt.Println("Fig 6(b.4): routing fidelity threshold sweep (SurfNet)")
			fmt.Print(surfnet.FormatSweep("fidelity-threshold", pts))
		case "7":
			rows, err := surfnet.Fig7(cfg)
			if err != nil {
				return err
			}
			fmt.Println("Fig 7: averaged communication fidelity of the five designs")
			fmt.Print(surfnet.FormatFig7(rows))
		}
		fmt.Println()
		return nil
	}

	for _, f := range figs {
		prev := obs.Registry.Snapshot()
		slog.Info("running figure", "fig", f, "trials", cfg.Trials, "workers", cfg.Workers)
		if err := runFig(f); err != nil {
			slog.Error("surfnetsim: figure failed", "fig", f, "err", err)
			return 1
		}
		if obs.Registry != nil {
			printDelta(f, obs.Registry.Snapshot().CounterDelta(prev))
		}
	}
	return 0
}

// printDelta reports what one figure's run added to the counters, sorted for
// stable output.
func printDelta(fig string, delta map[string]int64) {
	if len(delta) == 0 {
		return
	}
	names := make([]string, 0, len(delta))
	for name := range delta {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("telemetry delta (fig %s):\n", fig)
	for _, name := range names {
		fmt.Printf("  %-32s %d\n", name, delta[name])
	}
	fmt.Println()
}
