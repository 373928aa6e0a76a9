package main

import (
	"bufio"
	"context"
	"os"
	"os/exec"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"github.com/irsgo/irs/client"
	"github.com/irsgo/irs/internal/daemon"
)

// asDaemonEnv makes the test binary run as irsd itself, so a test can
// SIGKILL a real daemon process without building one first.
const asDaemonEnv = "IRSD_TEST_RUN_AS_DAEMON"

func TestMain(m *testing.M) {
	if os.Getenv(asDaemonEnv) != "" {
		os.Exit(daemon.Main(app()))
	}
	os.Exit(m.Run())
}

// child is one irsd process re-executed from the test binary.
type child struct {
	cmd               *exec.Cmd
	stdout            *bufio.Scanner
	tcpAddr, httpAddr string
}

// startChild boots irsd on dataDir with the default -fsync always and
// waits for both address lines.
func startChild(t *testing.T, dataDir string) *child {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	c := &child{cmd: exec.Command(exe, "-addr", "127.0.0.1:0", "-tcp-addr", "127.0.0.1:0", "-datasets", "demo", "-data-dir", dataDir)}
	c.cmd.Env = append(os.Environ(), asDaemonEnv+"=1")
	c.cmd.Stderr = os.Stderr // its log, shown when the test fails
	out, err := c.cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.cmd.Process.Kill() })
	c.stdout = bufio.NewScanner(out)
	c.tcpAddr = c.nextLine(t, "irsd: tcp on ")
	c.httpAddr = c.nextLine(t, "irsd: serving on http://")
	return c
}

func (c *child) nextLine(t *testing.T, prefix string) string {
	t.Helper()
	if !c.stdout.Scan() || !strings.HasPrefix(c.stdout.Text(), prefix) {
		t.Fatalf("irsd stdout: got %q, want a line starting %q", c.stdout.Text(), prefix)
	}
	return strings.TrimPrefix(c.stdout.Text(), prefix)
}

// TestKillNineUnderInsertLoad is the acknowledged-durability crash check:
// SIGKILL a durable -fsync always daemon while 16 callers insert disjoint
// unique keys, restart it on the same directory, and require the recovered
// key count to cover every acknowledged key (and nothing never sent).
func TestKillNineUnderInsertLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns and kills daemon processes")
	}
	dataDir := t.TempDir()
	victim := startChild(t, dataDir)
	cl, err := client.Dial(victim.tcpAddr, client.EncodingTCP)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	var sent, acked atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			keys := make([]float64, 8)
			for next := float64(g) * 1e9; ; {
				for i := range keys {
					keys[i], next = next, next+1
				}
				sent.Add(int64(len(keys)))
				n, err := cl.InsertKeys(ctx, "demo", keys)
				if err != nil {
					return // the daemon is gone
				}
				acked.Add(int64(n))
			}
		}()
	}
	for deadline := time.Now().Add(30 * time.Second); acked.Load() < 2000; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("only %d keys acknowledged in 30s", acked.Load())
		}
	}
	if err := victim.cmd.Process.Kill(); err != nil { // SIGKILL mid-load: the WAL tail may tear
		t.Fatal(err)
	}
	_ = victim.cmd.Wait()
	wg.Wait()

	survivor := startChild(t, dataDir)
	probe, err := client.Dial(survivor.httpAddr, client.EncodingJSON)
	if err != nil {
		t.Fatal(err)
	}
	defer probe.Close()
	st, err := probe.Stats(ctx)
	if err != nil || len(st.Datasets) != 1 {
		t.Fatalf("stats after restart: %+v, %v", st, err)
	}
	recovered := int64(st.Datasets[0].Len)
	t.Logf("sent=%d acked=%d recovered=%d", sent.Load(), acked.Load(), recovered)
	if recovered < acked.Load() || recovered > sent.Load() {
		t.Fatalf("recovered %d keys, want acked %d <= recovered <= sent %d", recovered, acked.Load(), sent.Load())
	}

	if err := survivor.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	survivor.nextLine(t, "irsd: drained, bye")
	if err := survivor.cmd.Wait(); err != nil {
		t.Fatalf("restarted daemon after SIGTERM: %v, want exit 0", err)
	}
}
