// Package cliutil is the shared observability harness of the cmd tools:
// the -metrics-out, -trace-out, -cpuprofile, and -memprofile flags, plus the
// lifecycle around them (open profile, run, flush trace, write snapshot),
// the -listen flag starting the live observability HTTP server of
// internal/obs, the -log-level flag configuring the process-wide slog
// logger, and the -workers flag sizing the deterministic trial pool of
// internal/sim.
package cliutil

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"surfnet/internal/obs"
	"surfnet/internal/telemetry"
)

// shutdownTimeout bounds the obs server's graceful drain in Finish, so a
// stuck scraper cannot hold up the metrics/trace flush.
const shutdownTimeout = 3 * time.Second

// Observability bundles the telemetry and profiling state of one CLI run.
// Register its flags, call Start before the workload and Finish (usually
// deferred) after it.
type Observability struct {
	MetricsOut string
	TraceOut   string
	CPUProfile string
	MemProfile string

	// Listen is the address of the live observability HTTP server
	// (/metrics, /healthz, /readyz, /status, /debug/pprof/); empty
	// disables it. ":0" picks an ephemeral port, logged at startup.
	Listen string
	// LogLevel names the slog threshold (debug, info, warn, error).
	LogLevel string

	// Workers is the Monte-Carlo trial pool size. Results are identical
	// for every value (trials are seeded by index, not worker), so this
	// only trades wall time for cores.
	Workers int

	// DeferReady keeps /readyz at 503 after Start. Batch CLIs are ready the
	// moment the server is up, but a resident daemon must not report ready
	// until it owns network state and its API routes are mounted — set
	// DeferReady and flip ObsServer().SetReady(true) at that point (and
	// back to false when draining).
	DeferReady bool

	// Registry is non-nil once Start ran with -metrics-out or -listen set,
	// or after ForceMetrics; pass it to the experiment configs.
	Registry *telemetry.Registry
	// Tracer is non-nil once Start ran with -trace-out set.
	Tracer *telemetry.JSONL
	// Progress is non-nil once Start ran with -listen set; pass it to the
	// experiment configs so /status shows live sweep progress.
	Progress *obs.Tracker

	cpuFile   *os.File
	traceFile *os.File
	server    *obs.Server
	addr      net.Addr
	ctx       context.Context
	stop      context.CancelFunc
}

// Addr reports the observability server's bound address ("" before Start or
// without -listen). With "-listen :0" this is where the ephemeral port
// landed.
func (o *Observability) Addr() string {
	if o.addr == nil {
		return ""
	}
	return o.addr.String()
}

// Context returns the run context: it is cancelled on SIGINT/SIGTERM once
// Start has run, so interrupted sweeps stop between trials while Finish still
// flushes the partial -metrics-out and -trace-out output. Before Start it is
// the background context.
func (o *Observability) Context() context.Context {
	if o.ctx == nil {
		return context.Background()
	}
	return o.ctx
}

// Register defines the observability and worker-pool flags on fs.
func (o *Observability) Register(fs *flag.FlagSet) {
	fs.StringVar(&o.MetricsOut, "metrics-out", "", "write a JSON metrics snapshot to this file on exit")
	fs.StringVar(&o.TraceOut, "trace-out", "", "write a JSONL event trace to this file")
	fs.StringVar(&o.CPUProfile, "cpuprofile", "", "write a pprof CPU profile to this file")
	fs.StringVar(&o.MemProfile, "memprofile", "", "write a pprof heap profile to this file on exit")
	fs.StringVar(&o.Listen, "listen", "",
		"serve live observability HTTP (/metrics /healthz /readyz /status /debug/pprof/) on this address; :0 picks a port")
	fs.StringVar(&o.LogLevel, "log-level", "info", "log threshold: debug, info, warn, or error")
	fs.IntVar(&o.Workers, "workers", runtime.GOMAXPROCS(0),
		"trial worker-pool size (results are identical for any value; 1 forces serial)")
}

// ForceMetrics ensures a registry exists even without -metrics-out, for
// tools that always report telemetry-derived tables (decoderbench latency
// quantiles, routesolve pivot counts).
func (o *Observability) ForceMetrics() {
	if o.Registry == nil {
		o.Registry = telemetry.NewRegistry()
	}
}

// TracerOrNil returns the tracer as the interface type, staying truly nil
// when tracing is off (a typed-nil interface would defeat the engine's nil
// checks).
func (o *Observability) TracerOrNil() telemetry.Tracer {
	if o.Tracer == nil {
		return nil
	}
	return o.Tracer
}

// parseLogLevel maps a -log-level value onto its slog.Level.
func parseLogLevel(s string) (slog.Level, error) {
	switch strings.ToLower(s) {
	case "debug":
		return slog.LevelDebug, nil
	case "info", "":
		return slog.LevelInfo, nil
	case "warn", "warning":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return 0, fmt.Errorf("log-level: unknown level %q (want debug, info, warn, or error)", s)
}

// SetupLogging installs the process-wide slog default: text on stderr at the
// configured -log-level. It is separate from Start so flag errors in it
// surface before any output file is created.
func (o *Observability) SetupLogging() error {
	level, err := parseLogLevel(o.LogLevel)
	if err != nil {
		return err
	}
	slog.SetDefault(slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level})))
	return nil
}

// Start configures logging, opens the configured outputs, starts the CPU
// profile and the observability server, and installs the signal-aware run
// context.
func (o *Observability) Start() error {
	if err := o.SetupLogging(); err != nil {
		return err
	}
	o.ctx, o.stop = signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	if o.MetricsOut != "" {
		o.ForceMetrics()
	}
	if o.TraceOut != "" {
		f, err := os.Create(o.TraceOut)
		if err != nil {
			return fmt.Errorf("trace-out: %w", err)
		}
		o.traceFile = f
		o.Tracer = telemetry.NewJSONL(f)
	}
	if o.CPUProfile != "" {
		f, err := os.Create(o.CPUProfile)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fmt.Errorf("cpuprofile: %w", err)
		}
		o.cpuFile = f
	}
	if o.Listen != "" {
		o.ForceMetrics()
		o.Progress = obs.NewTracker()
		o.server = obs.NewServer(o.Registry, o.Progress)
		addr, err := o.server.Listen(o.Listen)
		if err != nil {
			return fmt.Errorf("listen: %w", err)
		}
		o.addr = addr
		slog.Info("observability server listening", "addr", addr.String())
		if !o.DeferReady {
			o.server.SetReady(true)
		}
	}
	return nil
}

// ObsServer returns the live observability server, nil before Start or
// without -listen. Resident daemons use it to mount API routes, attach a
// service status snapshot, and control /readyz (see DeferReady).
func (o *Observability) ObsServer() *obs.Server { return o.server }

// Finish shuts down the observability server, stops the CPU profile, writes
// the heap profile and the metrics snapshot, and flushes the trace. It
// returns the first error encountered but always attempts every step. A
// non-nil error means observability output was lost — callers should exit
// non-zero.
func (o *Observability) Finish() error {
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	if o.stop != nil {
		o.stop() // restore default signal handling
		o.stop = nil
	}
	if o.server != nil {
		ctx, cancel := context.WithTimeout(context.Background(), shutdownTimeout)
		keep(o.server.Shutdown(ctx))
		cancel()
		o.server = nil
	}
	if o.cpuFile != nil {
		pprof.StopCPUProfile()
		keep(o.cpuFile.Close())
		o.cpuFile = nil
	}
	if o.MemProfile != "" {
		f, err := os.Create(o.MemProfile)
		if err != nil {
			keep(fmt.Errorf("memprofile: %w", err))
		} else {
			runtime.GC() // get up-to-date allocation statistics
			keep(pprof.WriteHeapProfile(f))
			keep(f.Close())
		}
	}
	if o.Tracer != nil {
		keep(wrapErr("trace-out", o.Tracer.Flush()))
	}
	if o.traceFile != nil {
		keep(wrapErr("trace-out", o.traceFile.Close()))
		o.traceFile = nil
	}
	if o.MetricsOut != "" && o.Registry != nil {
		f, err := os.Create(o.MetricsOut)
		if err != nil {
			keep(fmt.Errorf("metrics-out: %w", err))
		} else {
			keep(wrapErr("metrics-out", o.Registry.Snapshot().WriteJSON(f)))
			keep(wrapErr("metrics-out", f.Close()))
		}
	}
	return first
}

// wrapErr prefixes a sink error with the flag it belongs to, so "disk full"
// says which output was lost.
func wrapErr(sink string, err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("%s: %w", sink, err)
}

// ExitOnFinishError is the shared deferred tail of every CLI main: it runs
// Finish, logs any sink failure, and forces the named exit code to 1 so a
// run whose observability output was lost cannot exit 0.
func ExitOnFinishError(o *Observability, exit *int) {
	if err := o.Finish(); err != nil {
		slog.Error("observability output lost", "err", err)
		if *exit == 0 {
			*exit = 1
		}
	}
}
