package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"github.com/irsgo/irs/benchmark/loadgen"
)

// logTail is how many of a child's last log lines an error carries.
const logTail = 40

// Phase deadlines. Every wait in the benchmark has one; an error past a
// deadline prints the child's log tail.
const (
	startTimeout = 20 * time.Second // spawn → addresses printed → /readyz 200
	stopTimeout  = 10 * time.Second // SIGTERM → exit, then SIGKILL
	loadTimeout  = 90 * time.Second
	callTimeout  = 10 * time.Second // one scrape, stats or check request
)

// daemon is one child process: an irsd or an irsrouter.
type daemon struct {
	name     string
	cmd      *exec.Cmd
	httpAddr string // host:port
	tcpAddr  string // host:port, "" without -tcp-addr

	mu    sync.Mutex
	tail  []string // last logTail lines of stdout and stderr
	addrs chan struct{}
	once  sync.Once
	exit  chan struct{} // closed when the process has been waited for
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

func (d *daemon) logLine(line string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.tail) == logTail {
		d.tail = d.tail[1:]
	}
	d.tail = append(d.tail, line)
	// Both daemons print "<name>: tcp on <addr>" before
	// "<name>: serving on http://<addr>"; the second completes the pair.
	if _, rest, ok := strings.Cut(line, ": tcp on "); ok {
		d.tcpAddr = strings.TrimSpace(rest)
	}
	if _, rest, ok := strings.Cut(line, ": serving on http://"); ok {
		d.httpAddr = strings.TrimSpace(rest)
		d.once.Do(func() { close(d.addrs) })
	}
}

// logs returns the child's last lines, for error messages.
func (d *daemon) logs() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return fmt.Sprintf("--- last %d log lines of %s (pid %d) ---\n%s\n---", len(d.tail), d.name, d.pid(), strings.Join(d.tail, "\n"))
}

// fleet owns every child process and scratch directory of a run, so one
// call tears all of it down on exit, panic, signal or timeout.
type fleet struct {
	binDir  string // holds the irsd and irsrouter binaries
	workDir string // scratch directories are made here, inside the checkout
	procs   int    // GOMAXPROCS given to each child
	// genCPUs and daemonCPUs split the machine between the generator and
	// the children; both nil where it has one CPU or cannot be split.
	genCPUs, daemonCPUs []int

	mu      sync.Mutex
	daemons []*daemon
	dirs    []string
}

// start spawns bin with args and waits until it has printed its
// addresses and answers /readyz.
func (f *fleet) start(name, bin string, args ...string) (*daemon, error) {
	d := &daemon{name: name, addrs: make(chan struct{}), exit: make(chan struct{})}
	d.cmd = exec.Command(filepath.Join(f.binDir, bin), args...)
	d.cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", f.procs))
	isolate(d.cmd)
	pr, pw, err := os.Pipe()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	d.cmd.Stdout, d.cmd.Stderr = pw, pw
	if err := startOn(d.cmd, f.daemonCPUs, f.genCPUs); err != nil {
		_ = pr.Close()
		_ = pw.Close()
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	_ = pw.Close() // the child holds the write end now
	f.mu.Lock()
	f.daemons = append(f.daemons, d)
	f.mu.Unlock()
	go func() {
		sc := bufio.NewScanner(pr)
		sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
		for sc.Scan() {
			d.logLine(sc.Text())
		}
		_, _ = io.Copy(io.Discard, pr) // a line over the limit must not block the child
		_ = pr.Close()
		_ = d.cmd.Wait()
		close(d.exit)
	}()

	deadline := time.Now().Add(startTimeout)
	select {
	case <-d.addrs:
	case <-d.exit:
		return nil, fmt.Errorf("%s exited during start-up\n%s", name, d.logs())
	case <-time.After(startTimeout):
		return nil, fmt.Errorf("%s printed no address within %v\n%s", name, startTimeout, d.logs())
	}
	for {
		err := d.ready()
		if err == nil {
			return d, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("%s not ready within %v (last: %v)\n%s", name, startTimeout, err, d.logs())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// call makes one HTTP request to the daemon and returns the status and
// the body. A non-empty body is POSTed as JSON.
func (d *daemon) call(path, body string, timeout time.Duration) (int, []byte, error) {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	method, payload := http.MethodGet, io.Reader(nil)
	if body != "" {
		method, payload = http.MethodPost, strings.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, "http://"+d.httpAddr+path, payload)
	if err != nil {
		return 0, nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// ready reports whether /readyz answers 200.
func (d *daemon) ready() error {
	code, _, err := d.call("/readyz", "", callTimeout)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("/readyz: status %d", code)
	}
	return err
}

// scrape reads and parses the daemon's /metrics.
func (d *daemon) scrape() (loadgen.Metrics, error) {
	code, body, err := d.call("/metrics", "", callTimeout)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("status %d", code)
	}
	if err != nil {
		return nil, fmt.Errorf("%s /metrics: %w\n%s", d.name, err, d.logs())
	}
	return loadgen.ParseMetrics(body)
}

// snapshot asks a durable daemon for a snapshot of dataset over its HTTP
// API (client.Conn has no snapshot call).
func (d *daemon) snapshot(dataset string) error {
	code, body, err := d.call("/snapshot", `{"dataset":"`+dataset+`"}`, loadTimeout)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("status %d: %s", code, body)
	}
	if err != nil {
		return fmt.Errorf("%s /snapshot: %w\n%s", d.name, err, d.logs())
	}
	return nil
}

// stop ends the child: SIGTERM and a bounded wait for its drain when
// graceful, SIGKILL to its whole process group otherwise and after the
// wait. It returns once the process has been reaped.
func (d *daemon) stop(graceful bool) error {
	select {
	case <-d.exit:
		return nil
	default:
	}
	if graceful {
		signalGroup(d.cmd, syscall.SIGTERM)
		select {
		case <-d.exit:
			return nil
		case <-time.After(stopTimeout):
		}
	}
	signalGroup(d.cmd, syscall.SIGKILL)
	select {
	case <-d.exit:
	case <-time.After(stopTimeout):
		return fmt.Errorf("%s (pid %d) survived SIGKILL for %v", d.name, d.pid(), stopTimeout)
	}
	if graceful {
		return fmt.Errorf("%s did not drain within %v of SIGTERM\n%s", d.name, stopTimeout, d.logs())
	}
	return nil
}

// tempDir makes a scratch directory under workDir, removed by close.
func (f *fleet) tempDir(pattern string) (string, error) {
	dir, err := os.MkdirTemp(f.workDir, pattern)
	if err != nil {
		return "", err
	}
	f.mu.Lock()
	f.dirs = append(f.dirs, dir)
	f.mu.Unlock()
	return dir, nil
}

// stopAll ends every child still running and forgets them.
func (f *fleet) stopAll(graceful bool) error {
	f.mu.Lock()
	ds := f.daemons
	f.daemons = nil
	f.mu.Unlock()
	var errs []error
	// Last started first: a router stops before the nodes it fronts.
	for i := len(ds) - 1; i >= 0; i-- {
		errs = append(errs, ds[i].stop(graceful))
	}
	return errors.Join(errs...)
}

// close kills whatever is left and removes the scratch directories. It is
// safe to call more than once and from the signal handler.
func (f *fleet) close() {
	_ = f.stopAll(false)
	f.mu.Lock()
	dirs := f.dirs
	f.dirs = nil
	f.mu.Unlock()
	for _, dir := range dirs {
		_ = os.RemoveAll(dir)
	}
}
