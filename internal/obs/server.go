package obs

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/pprof"
	"sync/atomic"
	"time"

	"surfnet/internal/telemetry"
)

// Server is the embedded observability HTTP server. It serves:
//
//	/metrics       telemetry registry, Prometheus text exposition format
//	/healthz       liveness: 200 once the process is serving
//	/readyz        readiness: 503 until SetReady(true), 503 again after shutdown
//	/status        live sweep progress as JSON (see Status)
//	/debug/pprof/  the standard runtime profiles
//
// Handlers only read state, so scraping mid-run never perturbs results.
//
// A resident daemon mounts its API routes with Handle and attaches a service
// snapshot with SetServiceStatus, making this one mux both the ops surface
// and the serving surface.
type Server struct {
	reg     *telemetry.Registry
	tracker *Tracker
	service atomic.Pointer[func() any]
	mux     *http.ServeMux
	srv     *http.Server
	ready   atomic.Bool
	started time.Time
}

// NewServer builds a server over the given registry and progress tracker.
// Either may be nil: /metrics then serves an empty exposition and /status a
// zero progress report.
func NewServer(reg *telemetry.Registry, tracker *Tracker) *Server {
	s := &Server{reg: reg, tracker: tracker, mux: http.NewServeMux(), started: time.Now()}
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	s.mux.HandleFunc("/status", s.handleStatus)
	// pprof registers on http.DefaultServeMux via init; mount the handlers
	// explicitly so this private mux stays independent of global state.
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return s
}

// Handler exposes the server's mux, mainly for httptest-based tests.
func (s *Server) Handler() http.Handler { return s.mux }

// Handle mounts an additional route on the server's mux — the daemon's API
// endpoints live next to the ops endpoints. Mount before Listen; the mux
// panics on duplicate patterns, same as http.ServeMux.
func (s *Server) Handle(pattern string, h http.Handler) { s.mux.Handle(pattern, h) }

// SetServiceStatus attaches a snapshot callback whose result /status embeds
// under "service" — queue depth, admission counters, tenant accounting. The
// callback must be safe for concurrent use; nil detaches it.
func (s *Server) SetServiceStatus(fn func() any) {
	if fn == nil {
		s.service.Store(nil)
		return
	}
	s.service.Store(&fn)
}

// SetReady flips the /readyz state. The CLI wrapper sets it true once sinks
// and the experiment harness are wired, and false again during shutdown.
func (s *Server) SetReady(ready bool) { s.ready.Store(ready) }

// Listen binds addr (e.g. ":9090", "127.0.0.1:0") and serves in the
// background. It returns the bound address so callers can log the resolved
// port when addr requested an ephemeral one.
func (s *Server) Listen(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s.srv = &http.Server{Handler: s.mux}
	go func() {
		// ErrServerClosed after Shutdown is the normal exit; any earlier
		// error just ends background serving — the simulation must not die
		// because its observer did.
		_ = s.srv.Serve(ln)
	}()
	return ln.Addr(), nil
}

// Shutdown gracefully stops a listening server. It is a no-op if Listen was
// never called (the httptest path).
func (s *Server) Shutdown(ctx context.Context) error {
	s.ready.Store(false)
	if s.srv == nil {
		return nil
	}
	return s.srv.Shutdown(ctx)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var snap telemetry.Snapshot
	if s.reg != nil {
		snap = s.reg.Snapshot()
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = WritePrometheus(w, snap)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, _ = w.Write([]byte("ok\n"))
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if !s.ready.Load() {
		http.Error(w, "not ready", http.StatusServiceUnavailable)
		return
	}
	_, _ = w.Write([]byte("ready\n"))
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	st := s.tracker.Status()
	st.Ready = s.ready.Load()
	st.UptimeSeconds = time.Since(s.started).Seconds()
	if s.reg != nil {
		st.Counters = s.reg.Snapshot().Counters
	}
	if fn := s.service.Load(); fn != nil {
		st.Service = (*fn)()
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(st)
}
