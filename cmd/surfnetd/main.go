// Command surfnetd is the resident SurfNet control-plane daemon: it owns one
// generated network's state for its whole lifetime and serves transfer
// admission over HTTP/JSON while re-using the batch pipeline underneath —
// transfers are admitted into epoch batches, each epoch is planned by the LP
// planner over current state and executed on the re-entrant parallel engine.
// The batch CLIs (surfnetsim, faultsim, ...) remain the figure-reproduction
// path; surfnetd is the service path over the same engine.
//
// API (on the -listen address, shared with the ops surface):
//
//	POST /v1/transfers             admit a transfer (202; 429 shed +
//	                               Retry-After; 503 draining; 400 invalid)
//	GET  /v1/transfers/{id}        transfer status
//	GET  /v1/transfers/{id}/trace  flight timeline + latency attribution
//	GET  /v1/network               the owned network snapshot
//	GET  /v1/faults                live fault-plane snapshot
//	POST /v1/faults                swap the live fault scenario (400 on invalid)
//	GET  /debug/bundle             one-shot incident snapshot, with the
//	                               last 32 terminal flights
//	GET  /metrics /healthz /readyz /status /debug/pprof/   ops plane
//
// Every transfer records its complete flight (at most 65 events, bounded by
// the retry cap); cmd/traceview renders a trace or a bundle.
//
// Lifecycle: /readyz stays 503 until the daemon owns network state and the
// API routes are mounted; SIGINT/SIGTERM flips /readyz back to 503 and drains
// — every admitted transfer completes its epoch before the process exits.
//
// The live fault plane is armed with -faults (the resilience sweep's unit
// scenario scaled by the given intensity) and/or -fault-script (an exact
// outage timetable in SLOT:fiber|node:ID:DURATION,... form, stepped on the
// -fault-tick cadence). Every epoch plans cold on the network with the
// current outages masked out.
//
// Usage:
//
//	surfnetd -listen :8080 [-facilities abundant|sufficient|insufficient]
//	         [-fidelity good|poor] [-net-seed S] [-seed S]
//	         [-queue-limit N] [-epoch-max N] [-fiber-fail-prob P]
//	         [-faults X] [-fault-script SCRIPT] [-fault-tick D]
//	         [-workers N] [-log-level LEVEL] [-metrics-out FILE] ...
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"strings"

	"surfnet"
	"surfnet/internal/cliutil"
	"surfnet/internal/core"
	"surfnet/internal/decoder"
	"surfnet/internal/experiments"
	"surfnet/internal/rng"
	"surfnet/internal/routing"
	"surfnet/internal/service"
	"surfnet/internal/topology"
)

func main() {
	os.Exit(run())
}

// parseFacilities maps the -facilities flag onto a scenario.
func parseFacilities(s string) (topology.Facilities, error) {
	switch strings.ToLower(s) {
	case "abundant", "":
		return topology.Abundant, nil
	case "sufficient":
		return topology.Sufficient, nil
	case "insufficient":
		return topology.Insufficient, nil
	}
	return topology.Facilities{}, fmt.Errorf("unknown facilities %q (want abundant, sufficient, or insufficient)", s)
}

// parseFidelity maps the -fidelity flag onto a connection-quality range.
func parseFidelity(s string) (topology.FidelityRange, error) {
	switch strings.ToLower(s) {
	case "good", "":
		return topology.GoodConnection, nil
	case "poor":
		return topology.PoorConnection, nil
	}
	return topology.FidelityRange{}, fmt.Errorf("unknown fidelity %q (want good or poor)", s)
}

func run() (exit int) {
	facilitiesArg := flag.String("facilities", "abundant", "facility scenario the daemon owns: abundant, sufficient, or insufficient")
	fidelityArg := flag.String("fidelity", "good", "fiber fidelity range: good or poor")
	netSeed := flag.Uint64("net-seed", 1, "topology generation seed")
	seed := flag.Uint64("seed", 1, "service epoch seed (per-epoch rng streams derive from it)")
	queueLimit := flag.Int("queue-limit", 0, "admission queue bound; arrivals beyond it are shed with 429 (0: default 256)")
	epochMax := flag.Int("epoch-max", 0, "max transfers batched into one planning epoch (0: default 32)")
	fiberFailProb := flag.Float64("fiber-fail-prob", 0, "per-slot fiber crash probability during execution (crashed fibers stay down 5 slots)")
	faultIntensity := flag.Float64("faults", 0, "arm the live fault plane with the resilience scenario at this intensity (0: off)")
	faultScript := flag.String("fault-script", "", "scripted outage timetable for the live fault plane: SLOT:fiber|node:ID:DURATION,...")
	faultTick := flag.Duration("fault-tick", 0, "fault-plane step period (0: default 250ms)")
	var obs cliutil.Observability
	obs.DeferReady = true // not ready until the engine owns state and routes are up
	obs.Register(flag.CommandLine)
	flag.Parse()

	if obs.Listen == "" {
		fmt.Fprintln(os.Stderr, "surfnetd: -listen is required (the daemon is its HTTP API)")
		return 2
	}
	if err := obs.Start(); err != nil {
		slog.Error("surfnetd: startup failed", "err", err)
		return 1
	}
	defer cliutil.ExitOnFinishError(&obs, &exit)

	fac, err := parseFacilities(*facilitiesArg)
	if err != nil {
		slog.Error("surfnetd: bad -facilities", "err", err)
		return 1
	}
	fr, err := parseFidelity(*fidelityArg)
	if err != nil {
		slog.Error("surfnetd: bad -fidelity", "err", err)
		return 1
	}

	net, err := topology.Generate(topology.DefaultParams(fac, fr), rng.New(*netSeed))
	if err != nil {
		slog.Error("surfnetd: generating topology", "err", err)
		return 1
	}
	// The engine and the planner record into the daemon's registry, so
	// /metrics shows the core, decoder and routing layers of every epoch
	// beside the service's own families.
	cfg := core.DefaultConfig()
	cfg.Decoder = decoder.SurfNet{}
	cfg.Metrics = obs.Registry
	if *fiberFailProb != 0 {
		cfg.Faults = &surfnet.FaultProfile{FiberCrashProb: *fiberFailProb, FiberRepairSlots: 5}
	}
	eng, err := core.NewEngine(net, cfg)
	if err != nil {
		slog.Error("surfnetd: building engine", "err", err)
		return 1
	}
	params := routing.DefaultParams(routing.SurfNet)
	params.Metrics = obs.Registry
	pl := routing.NewPlanner(params)

	// Assemble the live fault plane scenario: the resilience unit profile
	// scaled by -faults, with the -fault-script timetable on top. It is
	// validated against the generated network inside service.New — a script
	// targeting a fiber the topology does not have is a startup error.
	var profile *surfnet.FaultProfile
	if *faultIntensity > 0 || strings.TrimSpace(*faultScript) != "" {
		p := experiments.ResilienceProfile(*faultIntensity)
		script, err := surfnet.ParseFaultScript(*faultScript)
		if err != nil {
			slog.Error("surfnetd: bad -fault-script", "err", err)
			return 1
		}
		p.Script = script
		profile = &p
	}

	srv := obs.ObsServer()
	svc, err := service.New(eng, pl, service.Config{
		QueueLimit: *queueLimit,
		EpochMax:   *epochMax,
		Workers:    obs.Workers,
		Seed:       *seed,
		Metrics:    obs.Registry,
		Tracer:     obs.TracerOrNil(),
		DrainHook:  func() { srv.SetReady(false) },
		Faults:     profile,
		FaultTick:  *faultTick,
	})
	if err != nil {
		slog.Error("surfnetd: building service", "err", err)
		return 1
	}
	svc.RegisterRoutes(srv.Handle)
	srv.SetServiceStatus(func() any { return svc.Status() })
	// The engine owns state and the API is mounted: now — and only now —
	// report ready.
	srv.SetReady(true)
	slog.Info("surfnetd: serving",
		"facilities", fac.Name, "nodes", net.NumNodes(), "fibers", net.NumFibers(),
		"queue_limit", *queueLimit, "epoch_max", *epochMax,
		"faults", *faultIntensity, "fault_script", *faultScript != "")

	if err := svc.Run(obs.Context()); err != nil {
		slog.Error("surfnetd: service loop failed", "err", err)
		return 1
	}
	st := svc.Status()
	slog.Info("surfnetd: drained",
		"admitted", st.Admitted, "completed", st.Completed,
		"failed", st.Failed, "shed", st.Shed, "epochs", st.Epochs,
		"retries", st.Retries)
	return 0
}
