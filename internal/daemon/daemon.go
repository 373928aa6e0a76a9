// Package daemon is the process shell irsd and irsrouter share: the common
// flags and their validation, the logger, both listeners, the HTTP and
// irsnet servers, one serve / reload / drain loop, and the exit codes. A
// daemon supplies only what differs — its own flags, how to build its
// backend, its reload function and its periodic jobs — as an App.
//
// Run installs no signal handlers: it takes a context (cancelled to drain)
// and a reload channel, so a test can boot, reload and drain a whole
// daemon in-process. Main wires both to the process signals.
//
// Wrappers, CI and benchmark/daemons.go parse stdout: the tcp and serving
// address lines, in that order, once both listeners are bound, and the bye
// line after the drain (the three Fprintf calls in Run). Everything else
// is slog on stderr.
//
// Drain order: readiness drops (/readyz answers draining), both listeners
// shut down and requests already read are answered, the periodic jobs
// stop, then server.Server.Close drains the backend (coalescers answered,
// WALs synced). Exit codes: 2 invalid flags, 1 boot or serve failure, 0
// clean drain. DESIGN.md "Daemon runtime" has the argument.
package daemon

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"

	"github.com/irsgo/irs/server"
	"github.com/irsgo/irs/server/irsnet"
)

// App is what differs between the daemons.
type App struct {
	// Flags carries the daemon's own flags (the FlagSet's name is the
	// daemon's name); Run adds the common ones and parses.
	Flags   *flag.FlagSet
	Version string
	// Addr is the default of -addr; ConfigReplaces names the daemon's
	// flags whose job -config takes over (and is exclusive with).
	Addr           string
	ConfigReplaces []string
	// Validate checks the daemon's own flags once the common ones passed.
	Validate func(c *Common) error
	// Build boots the backend. On error a non-nil Instance.Server is
	// closed by Run.
	Build func(c *Common, logger *slog.Logger) (Instance, error)

	listen func(network, addr string) (net.Listener, error) // tests reach the listeners through this; nil means net.Listen
}

// Instance is a booted daemon: the server to put on the listeners and the
// work that runs beside serving.
type Instance struct {
	Server *server.Server
	// Reload re-reads -config and applies it; it runs on the serve loop for
	// each value the reload channel delivers, and Run counts the outcome
	// (irsd_config_reloads_total, irsd_config_epoch). An error means the
	// file was rejected, or applied only in part. Nil (no -config) turns a
	// reload trigger into a drain — what an unhandled SIGHUP means to a
	// process, minus the lost WAL tail.
	Reload func() error
	// ConfigPoll > 0 also reloads whenever the -config file's mtime has
	// changed, checked this often.
	ConfigPoll time.Duration
	// Jobs run on their own tickers until the drain; Every <= 0 disables one.
	Jobs []Job
}

// transport is what Run needs of a serving layer; *http.Server and
// *irsnet.Server both are one.
type transport interface {
	Serve(net.Listener) error
	Shutdown(context.Context) error
}

// Job is one periodic task.
type Job struct {
	Every time.Duration
	Run   func()
}

// Common holds the parsed common flags.
type Common struct {
	Addr, TCPAddr                  string
	ReadHeaderTimeout, IdleTimeout time.Duration
	LogFormat                      string
	Pprof                          bool
	Config                         string

	explicit map[string]bool
}

// Explicit reports whether the named flag was set on the command line, so
// a default never trips a "has no effect without" rule.
func (c *Common) Explicit(name string) bool { return c.explicit[name] }

func (c *Common) register(fs *flag.FlagSet, addr string, configReplaces []string) {
	fs.StringVar(&c.Addr, "addr", addr, "listen address (port 0 picks a free port)")
	fs.StringVar(&c.TCPAddr, "tcp-addr", "", "persistent binary TCP listen address (empty disables; port 0 picks a free port)")
	fs.DurationVar(&c.ReadHeaderTimeout, "read-header-timeout", 5*time.Second, "HTTP header read deadline per request (guards against slowloris connections)")
	fs.DurationVar(&c.IdleTimeout, "idle-timeout", 2*time.Minute, "HTTP keep-alive idle connection deadline")
	fs.StringVar(&c.LogFormat, "log-format", "text", "structured log encoding: text or json")
	fs.BoolVar(&c.Pprof, "pprof", false, "expose net/http/pprof under /debug/pprof/ on the HTTP address")
	fs.StringVar(&c.Config, "config", "", "config file in the spec grammar (one element per line, '#' comments), reloaded on SIGHUP; replaces and excludes -"+strings.Join(configReplaces, ", -"))
}

// validate rejects contradictory common flags before any state is touched.
func (c *Common) validate(configReplaces []string) error {
	if c.LogFormat != "text" && c.LogFormat != "json" {
		return fmt.Errorf("-log-format %q: want text or json", c.LogFormat)
	}
	for _, name := range configReplaces {
		if c.explicit["config"] && c.explicit[name] {
			return fmt.Errorf("-config and -%s are mutually exclusive (the config file replaces it)", name)
		}
	}
	// A zero http.Server timeout means no limit: one client trickling
	// header bytes, or idling on keep-alive, pins a connection forever.
	if c.ReadHeaderTimeout <= 0 {
		return errors.New("-read-header-timeout must be positive (zero would mean no limit)")
	}
	if c.IdleTimeout <= 0 {
		return errors.New("-idle-timeout must be positive (zero would mean no limit)")
	}
	return nil
}

// newLogger builds the structured logger: slog text for humans and grep,
// JSON for log pipelines, both on stderr.
func newLogger(format string) *slog.Logger {
	if format == "json" {
		return slog.New(slog.NewJSONHandler(os.Stderr, nil))
	}
	return slog.New(slog.NewTextHandler(os.Stderr, nil))
}

// Main runs app as the process: SIGINT/SIGTERM drain it, SIGHUP reloads.
func Main(app App) int {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	defer signal.Stop(hup)
	return Run(ctx, hup, os.Args[1:], os.Stdout, app)
}

// Run parses args, boots app, serves until ctx is cancelled or a listener
// fails, drains, and returns the exit code.
func Run(ctx context.Context, reload <-chan os.Signal, args []string, stdout io.Writer, app App) int {
	fs, name := app.Flags, app.Flags.Name()
	c := &Common{explicit: map[string]bool{}}
	c.register(fs, app.Addr, app.ConfigReplaces)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fs.Visit(func(f *flag.Flag) { c.explicit[f.Name] = true })
	err := c.validate(app.ConfigReplaces)
	if err == nil {
		err = app.Validate(c)
	}
	if err != nil {
		// The log format may itself be the invalid flag; text is always safe.
		newLogger("text").Error("invalid flags", "err", err)
		return 2
	}
	logger := newLogger(c.LogFormat)
	logger.Info(name+" starting", "version", app.Version, "go", runtime.Version(), "pid", os.Getpid())

	inst, err := app.Build(c, logger)
	s := inst.Server
	// closeBackend drains the coalescers (every accepted request is
	// answered), then syncs and closes the WALs — also on a failed boot,
	// where recovered datasets already hold open logs.
	closeBackend := func() bool {
		if s == nil {
			return true
		}
		if err := s.Close(); err != nil {
			logger.Error("close failed", "err", err)
			return false
		}
		return true
	}
	if err != nil {
		logger.Error("boot failed", "err", err)
		closeBackend()
		return 1
	}
	s.SetVersion(app.Version)
	if c.Pprof {
		s.EnablePprof()
	}
	// The boot configuration is epoch 1; each applied reload advances it.
	s.NoteReload(true)
	// Boot is complete: the daemon is ready the moment the listeners open.
	s.SetReady()

	// Both listeners bind before either serves, so a bad -tcp-addr fails
	// boot instead of surfacing mid-flight.
	listen := app.listen
	if listen == nil {
		listen = net.Listen
	}
	ln, err := listen("tcp", c.Addr)
	if err != nil {
		logger.Error("listen failed", "addr", c.Addr, "err", err)
		closeBackend()
		return 1
	}
	var tln net.Listener
	if c.TCPAddr != "" {
		if tln, err = listen("tcp", c.TCPAddr); err != nil {
			logger.Error("tcp listen failed", "addr", c.TCPAddr, "err", err)
			_ = ln.Close()
			closeBackend()
			return 1
		}
		fmt.Fprintf(stdout, "%s: tcp on %s\n", name, tln.Addr())
	}
	fmt.Fprintf(stdout, "%s: serving on http://%s\n", name, ln.Addr())

	servers := []transport{&http.Server{
		Handler:           s,
		ReadHeaderTimeout: c.ReadHeaderTimeout,
		IdleTimeout:       c.IdleTimeout,
	}}
	listeners := []net.Listener{ln}
	if tln != nil {
		tcpSrv := irsnet.NewServer(s)
		// The TCP transport's connection and latency series join /metrics.
		s.RegisterMetrics(tcpSrv)
		servers, listeners = append(servers, tcpSrv), append(listeners, tln)
	}
	served := make(chan error, len(servers))
	for i, srv := range servers {
		go func() { served <- srv.Serve(listeners[i]) }()
	}
	exit, serving := 0, len(servers)
	// noteServed records one Serve returning; anything but the answer to
	// Shutdown is a failure.
	noteServed := func(err error) {
		serving--
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			logger.Error("serve failed", "err", err)
			exit = 1
		}
	}
	stopJobs := startJobs(inst.Jobs)
	doReload := func() {
		if err := inst.Reload(); err != nil {
			s.NoteReload(false)
			logger.Error("config reload failed", "config", c.Config, "err", err)
			return
		}
		s.NoteReload(true)
		logger.Info("config reloaded", "config", c.Config, "epoch", s.ConfigEpoch())
	}
	var pollC <-chan time.Time // nil (never selected) without a config poll
	var lastMod time.Time
	if inst.Reload != nil && inst.ConfigPoll > 0 {
		if st, err := os.Stat(c.Config); err == nil {
			lastMod = st.ModTime()
		}
		pt := time.NewTicker(inst.ConfigPoll)
		defer pt.Stop()
		pollC = pt.C
	}

	// A Serve that returns on its own (listener torn down, accept error)
	// drains exactly like a signal.
serve:
	for {
		select {
		case <-ctx.Done():
			logger.Info("signal received, draining")
			break serve
		case err := <-served:
			noteServed(err)
			break serve
		case <-reload:
			if inst.Reload == nil {
				logger.Info("reload trigger without -config, draining")
				break serve
			}
			doReload()
		case <-pollC:
			if st, err := os.Stat(c.Config); err == nil && !st.ModTime().Equal(lastMod) {
				lastMod = st.ModTime()
				doReload()
			}
		}
	}
	s.SetDraining()
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, srv := range servers {
		if err := srv.Shutdown(shutCtx); err != nil {
			logger.Error("shutdown failed", "err", err)
		}
	}
	for serving > 0 {
		noteServed(<-served)
	}
	stopJobs()
	if !closeBackend() {
		exit = 1
	}
	fmt.Fprintf(stdout, "%s: drained, bye\n", name)
	return exit
}

// startJobs runs each enabled job on its own ticker; the returned stop
// waits for a run in progress.
func startJobs(jobs []Job) (stop func()) {
	quit := make(chan struct{})
	var wg sync.WaitGroup
	for _, j := range jobs {
		if j.Every <= 0 {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			t := time.NewTicker(j.Every)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					j.Run()
				case <-quit:
					return
				}
			}
		}()
	}
	return func() {
		close(quit)
		wg.Wait()
	}
}
