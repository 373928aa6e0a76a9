package daemon

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"github.com/irsgo/irs/server"
	"github.com/irsgo/irs/server/irsnet"
)

// TestValidateCommonFlags pins the flag rules both daemons share; the
// daemon-specific rows live in cmd/irsd and cmd/irsrouter. irsd passes
// ConfigReplaces {"datasets"}, irsrouter {"partitions", "datasets"}.
func TestValidateCommonFlags(t *testing.T) {
	irsd, router := []string{"datasets"}, []string{"partitions", "datasets"}
	cases := []struct {
		name     string
		explicit []string      // flags set on the command line
		set      func(*Common) // their values, over valid defaults
		replaces []string
		wantErr  bool
	}{
		{"defaults", nil, func(*Common) {}, irsd, false},
		{"zero read-header-timeout", nil, func(c *Common) { c.ReadHeaderTimeout = 0 }, irsd, true},
		{"negative read-header-timeout", nil, func(c *Common) { c.ReadHeaderTimeout = -time.Second }, irsd, true},
		{"zero idle-timeout", nil, func(c *Common) { c.IdleTimeout = 0 }, irsd, true},
		{"negative idle-timeout", nil, func(c *Common) { c.IdleTimeout = -time.Minute }, irsd, true},
		{"log-format json", []string{"log-format"}, func(c *Common) { c.LogFormat = "json" }, irsd, false},
		{"log-format unknown", []string{"log-format"}, func(c *Common) { c.LogFormat = "logfmt" }, irsd, true},
		{"config alone", []string{"config"}, func(c *Common) { c.Config = "/tmp/irs.conf" }, irsd, false},
		{"irsd: config with datasets", []string{"config", "datasets"}, func(c *Common) { c.Config = "/tmp/irs.conf" }, irsd, true},
		{"irsrouter: config with partitions", []string{"config", "partitions"}, func(c *Common) { c.Config = "/tmp/irs.conf" }, router, true},
		{"irsrouter: config with datasets", []string{"config", "datasets"}, func(c *Common) { c.Config = "/tmp/irs.conf" }, router, true},
		{"datasets without config", []string{"datasets"}, func(*Common) {}, router, false},
	}
	for _, tc := range cases {
		c := Common{ReadHeaderTimeout: 5 * time.Second, IdleTimeout: 5 * time.Second, LogFormat: "text", explicit: map[string]bool{}}
		for _, name := range tc.explicit {
			c.explicit[name] = true
		}
		tc.set(&c)
		if err := c.validate(tc.replaces); (err != nil) != tc.wantErr {
			t.Errorf("%s: err = %v, wantErr = %v", tc.name, err, tc.wantErr)
		}
	}
}

// TestInvalidFlagsExitTwo: a parse error and a rule violation both exit 2
// before Build runs.
func TestInvalidFlagsExitTwo(t *testing.T) {
	for _, args := range [][]string{{"-no-such-flag"}, {"-log-format", "logfmt"}} {
		app := testApp(func(*Common, *slog.Logger) (Instance, error) {
			t.Errorf("%v: Build ran", args)
			return Instance{}, errors.New("unreachable")
		})
		app.Flags.SetOutput(io.Discard)
		if code := Run(context.Background(), nil, args, io.Discard, app); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
	}
}

// TestSeedDrawnUnlessSet: without -seed each boot draws its own seed, so
// two daemons at their defaults never share one; an explicit -seed, zero
// included, is used as given so a logged run replays.
func TestSeedDrawnUnlessSet(t *testing.T) {
	seedOf := func(args ...string) uint64 {
		var seed uint64
		app := testApp(func(c *Common, _ *slog.Logger) (Instance, error) {
			seed = c.Seed
			return Instance{}, errors.New("stop after boot")
		})
		if code := Run(context.Background(), nil, args, io.Discard, app); code != 1 {
			t.Fatalf("%v: exit %d, want 1 (the failed build)", args, code)
		}
		return seed
	}
	if a, b := seedOf(), seedOf(); a == b {
		t.Errorf("two default boots drew the same seed %d", a)
	}
	for _, want := range []uint64{0, 42} {
		if got := seedOf("-seed", fmt.Sprint(want)); got != want {
			t.Errorf("-seed %d: booted with %d", want, got)
		}
	}
}

const waitFor = 10 * time.Second

// testApp is a daemon named "testd" whose backend build supplies.
func testApp(build func(*Common, *slog.Logger) (Instance, error)) App {
	return App{
		Flags:    flag.NewFlagSet("testd", flag.ContinueOnError),
		Version:  "test",
		Addr:     "127.0.0.1:0",
		Validate: func(*Common) error { return nil },
		Build:    build,
	}
}

// captureListeners makes app hand every listener it binds to the test.
func captureListeners(app *App) <-chan net.Listener {
	lns := make(chan net.Listener, 2) // HTTP, then TCP
	app.listen = func(network, addr string) (net.Listener, error) {
		ln, err := net.Listen(network, addr)
		if err == nil {
			lns <- ln
		}
		return ln, err
	}
	return lns
}

// boot runs app on its own goroutine. lines carries its stdout and closes
// when Run has returned; exit then holds the exit code.
func boot(ctx context.Context, reload <-chan os.Signal, app App, args ...string) (lines <-chan string, exit <-chan int) {
	pr, pw := io.Pipe()
	out := make(chan string, 3) // the whole stdout contract is three lines
	code := make(chan int, 1)
	go func() {
		code <- Run(ctx, reload, args, pw, app)
		_ = pw.Close()
	}()
	go func() {
		sc := bufio.NewScanner(pr)
		for sc.Scan() {
			out <- sc.Text()
		}
		close(out)
	}()
	return out, code
}

// nextLine returns the next stdout line with the given prefix cut off.
func nextLine(t *testing.T, lines <-chan string, prefix string) string {
	t.Helper()
	select {
	case line, ok := <-lines:
		rest, found := strings.CutPrefix(line, prefix)
		if !ok || !found {
			t.Fatalf("stdout: got %q (open=%v), want a line starting %q", line, ok, prefix)
		}
		return rest
	case <-time.After(waitFor):
		t.Fatalf("stdout: no line starting %q within %v", prefix, waitFor)
		return ""
	}
}

// waitExit asserts stdout is finished and returns the exit code.
func waitExit(t *testing.T, lines <-chan string, exit <-chan int) int {
	t.Helper()
	select {
	case line, ok := <-lines:
		if ok {
			t.Fatalf("stdout: unexpected line %q", line)
		}
	case <-time.After(waitFor):
		t.Fatalf("daemon still running after %v", waitFor)
	}
	return <-exit
}

// eventually polls cond until it holds.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(waitFor); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%s: not within %v", what, waitFor)
		}
	}
}

// readyz asks the server directly, so it also answers once the listeners
// are gone.
func readyz(s *server.Server) (int, string) {
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	return rec.Code, rec.Body.String()
}

// scrape reads one series from /metrics.
func scrape(t *testing.T, base, series string) float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(body), "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			v, err := strconv.ParseFloat(rest, 64)
			if err != nil {
				t.Fatalf("series %s: %v", series, err)
			}
			return v
		}
	}
	t.Fatalf("series %s not in /metrics", series)
	return 0
}

// durableServer is a server with one durable dataset "du" under dir whose
// WAL reaches the file only on close (SyncNone buffers in user space), so
// recovering every acknowledged key proves the backend was closed.
// deleteKey deletes one key from s's dataset "du" through its HTTP
// handler.
func deleteKey(s *server.Server) error {
	ts := httptest.NewServer(s)
	defer ts.Close()
	_, err := server.NewClient(ts.URL).Delete(context.Background(), "du", []float64{1})
	return err
}

func durableServer(t *testing.T, dir string) *server.Server {
	t.Helper()
	s := server.New(server.Config{})
	if _, err := s.AddDurable("du", false, server.DurableOptions{Dir: filepath.Join(dir, "du"), Sync: server.SyncNone}); err != nil {
		t.Fatal(err)
	}
	return s
}

// recoveredLen reopens dir and returns how many keys "du" recovered.
func recoveredLen(t *testing.T, dir string) int {
	t.Helper()
	s := server.New(server.Config{})
	if _, err := s.AddDurable("du", false, server.DurableOptions{Dir: filepath.Join(dir, "du")}); err != nil {
		t.Fatalf("reopen %s: %v", dir, err)
	}
	defer s.Close()
	return s.Stats().Datasets[0].Len
}

// TestServeReloadDrain walks the whole lifecycle in-process: both address
// lines in order, ready, one reload, then a drain during which readiness
// has dropped while a request already being read still completes.
func TestServeReloadDrain(t *testing.T) {
	s := durableServer(t, t.TempDir())
	var reloads atomic.Int32
	var reject atomic.Bool
	app := testApp(func(*Common, *slog.Logger) (Instance, error) {
		return Instance{Server: s, Reload: func() error {
			reloads.Add(1)
			if reject.Load() {
				return errors.New("malformed file")
			}
			return nil
		}}, nil
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	reload := make(chan os.Signal)
	lines, exit := boot(ctx, reload, app, "-tcp-addr", "127.0.0.1:0")
	tcpAddr := nextLine(t, lines, "testd: tcp on ")
	httpAddr := nextLine(t, lines, "testd: serving on http://")
	base := "http://" + httpAddr

	resp, err := http.Get(base + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/readyz after boot: %d, want 200", resp.StatusCode)
	}
	tcp := irsnet.NewClient(tcpAddr, irsnet.Options{})
	defer tcp.Close()
	if n, err := tcp.InsertKeys(ctx, "du", []float64{1, 2, 3, 4, 5}); err != nil || n != 5 {
		t.Fatalf("insert over tcp: %d, %v", n, err)
	}

	// One accepted reload, then one rejected: each runs the function once
	// and is counted under its outcome; only the accepted one is an epoch.
	const okSeries, errSeries = `irsd_config_reloads_total{status="ok"}`, `irsd_config_reloads_total{status="error"}`
	okBefore, errBefore := scrape(t, base, okSeries), scrape(t, base, errSeries)
	reload <- syscall.SIGHUP
	eventually(t, "accepted reload counted", func() bool { return scrape(t, base, okSeries) == okBefore+1 })
	reject.Store(true)
	reload <- syscall.SIGHUP
	eventually(t, "rejected reload counted", func() bool { return scrape(t, base, errSeries) == errBefore+1 })
	if ok, epoch := scrape(t, base, okSeries), scrape(t, base, "irsd_config_epoch"); reloads.Load() != 2 || ok != okBefore+1 || epoch != 2 {
		t.Fatalf("after an accepted and a rejected reload: ran %d times, ok %v -> %v, epoch %v (want 2 runs, +1, 2)", reloads.Load(), okBefore, ok, epoch)
	}

	// An in-flight request: headers and half the body sent, so the handler
	// is parked reading the rest when the drain starts.
	conn, err := net.Dial("tcp", httpAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	body := `{"dataset":"du","lo":0,"hi":10,"t":3}`
	fmt.Fprintf(conn, "POST /sample HTTP/1.1\r\nHost: testd\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s", len(body), body[:10])
	cancel()
	eventually(t, "readiness drops", func() bool { code, _ := readyz(s); return code != http.StatusOK })
	if code, text := readyz(s); code != http.StatusServiceUnavailable || text != "draining\n" {
		t.Fatalf("/readyz during drain: %d %q, want 503 draining", code, text)
	}
	select {
	case code := <-exit:
		t.Fatalf("daemon exited %d with a request still in flight", code)
	default:
	}
	if _, err := io.WriteString(conn, body[10:]); err != nil {
		t.Fatal(err)
	}
	resp, err = http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatalf("in-flight request during drain: %v", err)
	}
	answer, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(answer), `"samples"`) {
		t.Fatalf("in-flight request during drain: %d %s", resp.StatusCode, answer)
	}

	nextLine(t, lines, "testd: drained, bye")
	if code := waitExit(t, lines, exit); code != 0 {
		t.Fatalf("exit %d after a clean drain, want 0", code)
	}
}

// TestConfigPollReloads: with a config poll the daemon reloads when the
// -config file's mtime changes, and only then.
func TestConfigPollReloads(t *testing.T) {
	conf := filepath.Join(t.TempDir(), "testd.conf")
	if err := os.WriteFile(conf, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	var reloads atomic.Int32
	app := testApp(func(*Common, *slog.Logger) (Instance, error) {
		return Instance{
			Server:     server.New(server.Config{}),
			Reload:     func() error { reloads.Add(1); return nil },
			ConfigPoll: time.Millisecond,
		}, nil
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	lines, exit := boot(ctx, nil, app, "-config", conf)
	nextLine(t, lines, "testd: serving on http://")
	time.Sleep(20 * time.Millisecond) // many polls of an untouched file
	if n := reloads.Load(); n != 0 {
		t.Fatalf("%d reloads of an untouched config file", n)
	}
	later := time.Now().Add(time.Hour)
	if err := os.Chtimes(conf, later, later); err != nil {
		t.Fatal(err)
	}
	eventually(t, "reload after the mtime changed", func() bool { return reloads.Load() == 1 })
	cancel()
	nextLine(t, lines, "testd: drained, bye")
	if code := waitExit(t, lines, exit); code != 0 || reloads.Load() != 1 {
		t.Fatalf("exit %d after %d reloads, want 0 after 1", code, reloads.Load())
	}
}

// TestServeFailureDrainsEverything: when the HTTP listener dies under the
// daemon, the loop still drains the TCP side, stops the periodic job and
// closes the backend — every acknowledged key is on disk — and exits 1.
func TestServeFailureDrainsEverything(t *testing.T) {
	dir := t.TempDir()
	s := durableServer(t, dir)
	var ticks atomic.Int64
	app := testApp(func(*Common, *slog.Logger) (Instance, error) {
		return Instance{Server: s, Jobs: []Job{{Every: time.Millisecond, Run: func() { ticks.Add(1) }}}}, nil
	})
	lns := captureListeners(&app)
	lines, exit := boot(context.Background(), nil, app, "-tcp-addr", "127.0.0.1:0")
	tcpAddr := nextLine(t, lines, "testd: tcp on ")
	nextLine(t, lines, "testd: serving on http://")
	httpLn := <-lns

	tcp := irsnet.NewClient(tcpAddr, irsnet.Options{})
	defer tcp.Close()
	acked := 0
	for i := 0; i < 20; i++ {
		n, err := tcp.InsertKeys(context.Background(), "du", []float64{float64(i), float64(i) + 0.5})
		if err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		acked += n
	}
	eventually(t, "periodic job runs", func() bool { return ticks.Load() > 0 })

	_ = httpLn.Close()
	nextLine(t, lines, "testd: drained, bye")
	if code := waitExit(t, lines, exit); code != 1 {
		t.Fatalf("exit %d after the HTTP listener failed, want 1", code)
	}
	if c, err := net.Dial("tcp", tcpAddr); err == nil {
		c.Close()
		t.Errorf("TCP listener %s still accepts after the drain", tcpAddr)
	}
	stopped := ticks.Load()
	time.Sleep(20 * time.Millisecond)
	if now := ticks.Load(); now != stopped {
		t.Errorf("periodic job still running after exit: %d -> %d ticks", stopped, now)
	}
	if got := recoveredLen(t, dir); got != acked {
		t.Errorf("recovered %d keys, want the %d acknowledged", got, acked)
	}
}

// TestBadTCPAddrFailsBoot: a -tcp-addr that cannot bind fails boot with
// exit 1 and nothing on stdout, after closing the HTTP listener that was
// already bound and the backend that was already built.
func TestBadTCPAddrFailsBoot(t *testing.T) {
	dir := t.TempDir()
	s := durableServer(t, dir)
	if err := deleteKey(s); err != nil {
		t.Fatalf("delete before boot: %v", err)
	}
	app := testApp(func(*Common, *slog.Logger) (Instance, error) { return Instance{Server: s}, nil })
	lns := captureListeners(&app)
	lines, exit := boot(context.Background(), nil, app, "-tcp-addr", "127.0.0.1:99999")
	if code := waitExit(t, lines, exit); code != 1 {
		t.Fatalf("exit %d with an unbindable -tcp-addr, want 1", code)
	}
	if _, err := (<-lns).Accept(); !errors.Is(err, net.ErrClosed) {
		t.Errorf("HTTP listener after failed boot: Accept err = %v, want closed", err)
	}
	if err := deleteKey(s); !errors.Is(err, server.ErrShuttingDown) {
		t.Errorf("backend after failed boot: err = %v, want ErrShuttingDown", err)
	}
	if got := recoveredLen(t, dir); got != 0 {
		t.Errorf("recovered %d keys from an untouched dataset", got)
	}
}

// TestBuildFailureClosesBackend: a Build error exits 1 and closes the
// server Build handed back, so datasets recovered before the failure are
// synced rather than dropped.
func TestBuildFailureClosesBackend(t *testing.T) {
	s := durableServer(t, t.TempDir())
	app := testApp(func(*Common, *slog.Logger) (Instance, error) {
		return Instance{Server: s}, errors.New("second dataset failed")
	})
	lines, exit := boot(context.Background(), nil, app)
	if code := waitExit(t, lines, exit); code != 1 {
		t.Fatalf("exit %d after a Build error, want 1", code)
	}
	if err := deleteKey(s); !errors.Is(err, server.ErrShuttingDown) {
		t.Errorf("backend after failed Build: err = %v, want ErrShuttingDown", err)
	}
}
