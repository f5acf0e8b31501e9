// Command surfbench is SurfNet's end-to-end and per-layer benchmark. It drives
// one workload from a single goroutine with every worker pool at 1, checks
// the program's outputs, and prints one JSON result as its last line.
//
//	surfbench -workload epoch|threshold|erasure -seed N -seconds S -trace 0|1
//
// An untraced run (-trace 0) measures the end-to-end metrics. A traced run
// (-trace 1) records spans around each layer's public functions and prints the
// per-layer metrics; see README.md for the workloads and the metric tables.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// runConfig is what every workload receives.
type runConfig struct {
	seed     uint64
	seconds  float64
	traced   bool
	traceDir string
}

func (c runConfig) duration() time.Duration {
	return time.Duration(c.seconds * float64(time.Second))
}

// workload is one named input set the benchmark runs.
type workload struct {
	why string
	run func(runConfig, *tracer) (*outcome, error)
}

var workloads = map[string]workload{
	"epoch": {
		why: "surfnetd epochs of 8 transfers on the default network: the routing LP does almost all the work",
		run: runService,
	},
	"threshold": {
		why: "the scalar Fig 8 sweep at the paper's operating point: the growth decoders do the work",
		run: func(c runConfig, t *tracer) (*outcome, error) { return runSweep(c, t, thresholdSpec) },
	},
	"erasure": {
		why: "the packed Fig 8 engine under pure erasure: every lane takes the stamped peeler",
		run: func(c runConfig, t *tracer) (*outcome, error) { return runSweep(c, t, erasureSpec) },
	},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("surfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: epoch, threshold or erasure")
	seed := fs.Uint64("seed", 1, "seed every input derives from")
	seconds := fs.Float64("seconds", 10, "length of the measured phase")
	traceFlag := fs.Int("trace", 0, "1 records spans and prints the per-layer metrics")
	traceDir := fs.String("trace-dir", ".bench_build", "directory the traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(stderr, "surfbench: unknown workload %q (want one of %v)\n", *name, names)
		return 2
	}
	if *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(stderr, "surfbench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, traced: *traceFlag == 1, traceDir: *traceDir}
	res, err := execute(*name, w, cfg, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "surfbench: %s: %v\n", *name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "surfbench: encoding result: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		fmt.Fprintln(stderr, "surfbench: an output check failed")
		return 1
	}
	return 0
}

// execute runs one workload between two host reference loops, prints its
// report and checks, and assembles the result.
func execute(name string, w workload, cfg runConfig, stdout io.Writer) (result, error) {
	refStart := hostRefMs()
	var tr *tracer
	if cfg.traced {
		tr = newTracer()
	}
	o, err := w.run(cfg, tr)
	if err != nil {
		return result{}, err
	}
	refEnd := hostRefMs()
	o.set("host.ref_ms", (refStart+refEnd)/2)
	o.printf("host.ref_ms %.3f ms (start %.3f, end %.3f)", (refStart+refEnd)/2, refStart, refEnd)
	if tr != nil {
		path, err := tr.write(cfg.traceDir, name)
		if err != nil {
			return result{}, err
		}
		o.printf("trace: %d spans written to %s", len(tr.spans), path)
	}
	fmt.Fprintf(stdout, "workload %s seed %d seconds %g trace %v: %s\n", name, cfg.seed, cfg.seconds, cfg.traced, w.why)
	for _, l := range o.report {
		fmt.Fprintln(stdout, l)
	}
	for _, c := range o.checks {
		status := "ok"
		if !c.ok {
			status = "FAILED"
		}
		fmt.Fprintf(stdout, "check %s: %s (%s)\n", c.name, status, c.detail)
	}
	defs, required := endToEnd, true
	if cfg.traced {
		defs, required = perLayer, false
	}
	res, err := buildResult(o, defs, required)
	if err != nil {
		return result{}, err
	}
	for _, d := range defs {
		fmt.Fprintf(stdout, "metric %s %.6g %s\n", d.name, res.Metrics[d.name].Value, d.unit)
	}
	return res, nil
}
