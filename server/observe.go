package server

import (
	"net/http"
	"net/http/pprof"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/irsgo/irs/internal/metrics"
)

// Observability surface: /metrics (Prometheus text exposition),
// /healthz (liveness), /readyz (readiness), and opt-in /debug/pprof/.
//
// Readiness is a three-state machine — starting → ready → draining —
// driven by the process that owns the lifecycle (cmd/irsd): SetReady
// after boot recovery completes, SetDraining the moment a shutdown
// signal arrives. /readyz answers 503 outside the ready state, so a
// load balancer stops routing new work before the daemon stops
// accepting it, while requests already in flight drain normally.
//
// Scrapes never touch a hot-path lock: every instrument is an atomic
// from internal/metrics, snapshotted on the scraper's goroutine.

// Readiness states.
const (
	stateStarting int32 = iota
	stateReady
	stateDraining
)

// MetricsAppender contributes extra Prometheus series to /metrics.
// AppendMetrics appends complete families (HELP/TYPE plus samples) to
// dst and returns it; implementations must emit each metric name in
// exactly one contiguous block and must not emit names another
// appender owns. The TCP transport (server/irsnet) implements this for
// its connection and latency series.
type MetricsAppender interface {
	AppendMetrics(dst []byte) []byte
}

// observe is the Server's observability state.
type observe struct {
	start   time.Time
	state   atomic.Int32
	pprofOn atomic.Bool
	version atomic.Pointer[string]

	// Request-latency histograms for the HTTP data endpoints, split by
	// negotiated encoding. The TCP transport owns its own family.
	reqJSON   metrics.DurationHistogram
	reqBinary metrics.DurationHistogram

	// Config-generation tracking for daemons that hot-reload: epoch counts
	// applied configurations (1 after boot, +1 per successful reload),
	// reloadsOK/reloadsErr count reload outcomes for the
	// irsd_config_reloads_total{status} counter.
	configEpoch atomic.Uint64
	reloadsOK   atomic.Uint64
	reloadsErr  atomic.Uint64

	mu        sync.Mutex
	appenders []MetricsAppender
	recovery  map[string]time.Duration // dataset -> boot recovery duration
}

// SetVersion records the build version string reported by /stats and
// /metrics (irsd stamps it via -ldflags "-X main.version=...").
func (s *Server) SetVersion(v string) { s.obs.version.Store(&v) }

// Version returns the recorded build version, or "unknown".
func (s *Server) Version() string {
	if p := s.obs.version.Load(); p != nil && *p != "" {
		return *p
	}
	return "unknown"
}

// SetReady flips /readyz to 200. Call it once boot recovery has completed
// and the process is about to accept traffic.
// It does not override draining: a SIGTERM that lands during boot wins.
func (s *Server) SetReady() {
	s.obs.state.CompareAndSwap(stateStarting, stateReady)
}

// SetDraining flips /readyz back to 503 without stopping request
// service: call it when shutdown begins, before the listener closes,
// so orchestrators stop routing while in-flight work completes.
// Server.Close also sets it, for embedders that skip the probe dance.
func (s *Server) SetDraining() {
	s.obs.state.Store(stateDraining)
}

// Ready reports whether /readyz currently answers 200.
func (s *Server) Ready() bool { return s.obs.state.Load() == stateReady }

// EnablePprof exposes net/http/pprof under /debug/pprof/. Off by
// default: profiling endpoints leak implementation detail and cost CPU
// when sampled, so they are opt-in (irsd's -pprof flag).
func (s *Server) EnablePprof() { s.obs.pprofOn.Store(true) }

// RegisterMetrics adds an appender whose series are concatenated into
// /metrics after the server's own. Intended for setup time, safe any
// time.
func (s *Server) RegisterMetrics(a MetricsAppender) {
	s.obs.mu.Lock()
	defer s.obs.mu.Unlock()
	s.obs.appenders = append(s.obs.appenders, a)
}

// NoteReload records one configuration (re)load attempt. A successful
// apply advances the config epoch — call it once at boot so the epoch
// starts at 1 — and a failed one only bumps the error counter: the old
// configuration stays in force, which is exactly what the metrics should
// say. Surfaced as irsd_config_reloads_total{status} and
// irsd_config_epoch, and as the config_epoch field of /stats.
func (s *Server) NoteReload(ok bool) {
	if ok {
		s.obs.configEpoch.Add(1)
		s.obs.reloadsOK.Add(1)
	} else {
		s.obs.reloadsErr.Add(1)
	}
}

// ConfigEpoch returns the number of configurations applied so far (0 if
// the owning daemon never calls NoteReload).
func (s *Server) ConfigEpoch() uint64 { return s.obs.configEpoch.Load() }

// noteRecovery records how long one durable dataset's boot recovery
// took, surfaced as irsd_recovery_duration_seconds{dataset}.
func (s *Server) noteRecovery(name string, d time.Duration) {
	s.obs.mu.Lock()
	defer s.obs.mu.Unlock()
	if s.obs.recovery == nil {
		s.obs.recovery = make(map[string]time.Duration)
	}
	s.obs.recovery[name] = d
}

// serverInfo is the identity block /stats embeds.
func (s *Server) serverInfo() ServerInfo {
	return ServerInfo{
		Version:       s.Version(),
		GoVersion:     runtime.Version(),
		UptimeSeconds: time.Since(s.obs.start).Seconds(),
		ConfigEpoch:   s.obs.configEpoch.Load(),
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	// Liveness: the process is up and serving HTTP. Always 200 — a
	// draining daemon is still alive and must not be restarted.
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write([]byte("ok\n"))
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	switch s.obs.state.Load() {
	case stateReady:
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write([]byte("ready\n"))
	case stateDraining:
		w.WriteHeader(http.StatusServiceUnavailable)
		_, _ = w.Write([]byte("draining\n"))
	default:
		w.WriteHeader(http.StatusServiceUnavailable)
		_, _ = w.Write([]byte("starting\n"))
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "method_not_allowed", "use GET")
		return
	}
	buf := s.appendOwnMetrics(make([]byte, 0, 16<<10))
	buf = s.backend.AppendMetrics(buf)
	s.obs.mu.Lock()
	appenders := s.obs.appenders
	s.obs.mu.Unlock()
	for _, a := range appenders {
		buf = a.AppendMetrics(buf)
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(buf)
}

// appendOwnMetrics renders the process-level families this layer owns:
// build identity, uptime, readiness, HTTP request latency, and boot
// recovery durations.
func (s *Server) appendOwnMetrics(dst []byte) []byte {
	b := metrics.NewBuilder(dst)
	b.Family("irsd_build_info", "Build identity; value is always 1.", "gauge")
	b.Val("irsd_build_info", 1, "version", s.Version(), "go", runtime.Version())
	b.Family("irsd_process_uptime_seconds", "Seconds since the serving layer was constructed.", "gauge")
	b.Val("irsd_process_uptime_seconds", time.Since(s.obs.start).Seconds())
	b.Family("irsd_server_ready", "1 when /readyz answers 200.", "gauge")
	ready := float64(0)
	if s.Ready() {
		ready = 1
	}
	b.Val("irsd_server_ready", ready)
	b.Family("irsd_config_epoch", "Configurations applied since boot (1 = boot config, +1 per successful reload).", "gauge")
	b.Val("irsd_config_epoch", float64(s.obs.configEpoch.Load()))
	b.Family("irsd_config_reloads_total", "Configuration reload attempts by outcome.", "counter")
	b.Val("irsd_config_reloads_total", float64(s.obs.reloadsOK.Load()), "status", "ok")
	b.Val("irsd_config_reloads_total", float64(s.obs.reloadsErr.Load()), "status", "error")
	b.Family("irsd_http_request_duration_seconds", "HTTP data-endpoint latency by negotiated encoding.", "histogram")
	b.Histogram("irsd_http_request_duration_seconds", s.obs.reqJSON.Snapshot(), "encoding", "json")
	b.Histogram("irsd_http_request_duration_seconds", s.obs.reqBinary.Snapshot(), "encoding", "binary")

	s.obs.mu.Lock()
	names := make([]string, 0, len(s.obs.recovery))
	for name := range s.obs.recovery {
		names = append(names, name)
	}
	sort.Strings(names)
	durations := make([]time.Duration, len(names))
	for i, name := range names {
		durations[i] = s.obs.recovery[name]
	}
	s.obs.mu.Unlock()
	b.Family("irsd_recovery_duration_seconds", "Boot recovery wall time per durable dataset.", "gauge")
	for i, name := range names {
		b.Val("irsd_recovery_duration_seconds", durations[i].Seconds(), "dataset", name)
	}
	return b.Bytes()
}

// handlePprof routes /debug/pprof/* to net/http/pprof when enabled;
// 404 otherwise, so an unflagged daemon exposes nothing.
func (s *Server) handlePprof(w http.ResponseWriter, r *http.Request) {
	if !s.obs.pprofOn.Load() {
		writeError(w, http.StatusNotFound, "not_found", "pprof disabled; start irsd with -pprof")
		return
	}
	switch strings.TrimPrefix(r.URL.Path, "/debug/pprof") {
	case "/cmdline":
		pprof.Cmdline(w, r)
	case "/profile":
		pprof.Profile(w, r)
	case "/symbol":
		pprof.Symbol(w, r)
	case "/trace":
		pprof.Trace(w, r)
	default:
		// Index also serves the named profiles (heap, goroutine, ...).
		pprof.Index(w, r)
	}
}
