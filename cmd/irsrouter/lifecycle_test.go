package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	irs "github.com/irsgo/irs"
	"github.com/irsgo/irs/client"
	"github.com/irsgo/irs/internal/daemon"
	"github.com/irsgo/irs/server"
)

// TestReloadSwapsMapUnderLoad boots the whole router in-process from a
// config file over three nodes, then reloads a repartitioned file while 16
// callers sample through the proxy on all three encodings: not one request
// may fail across the swap, the map epoch ends at 2, and the daemon drains
// to exit 0.
func TestReloadSwapsMapUnderLoad(t *testing.T) {
	// Every node holds the full keyset, so any range split across any
	// subset of them answers correctly under both topologies.
	keys := make([]float64, 200)
	for i := range keys {
		keys[i] = float64(i)
	}
	var nodes [3]string
	for i := range nodes {
		s := server.New(server.Config{})
		u, err := irs.NewConcurrentFromSortedSeeded(keys, 2, uint64(11+i))
		if err != nil {
			t.Fatal(err)
		}
		if err := s.AddUnweighted("d", u); err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s)
		defer s.Close()
		defer ts.Close()
		nodes[i] = strings.TrimPrefix(ts.URL, "http://")
	}
	conf := filepath.Join(t.TempDir(), "router.conf")
	writeConf := func(b1, b2 int) {
		text := fmt.Sprintf("d\n%s@0:%d\n%s@%d:%d\n%s@%d:+inf\n", nodes[0], b1, nodes[1], b1, b2, nodes[2], b2)
		if err := os.WriteFile(conf, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	writeConf(70, 140)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	reload := make(chan os.Signal)
	pr, pw := io.Pipe()
	exit := make(chan int, 1)
	go func() {
		exit <- daemon.Run(ctx, reload, []string{"-addr", "127.0.0.1:0", "-tcp-addr", "127.0.0.1:0", "-config", conf}, pw, app())
		_ = pw.Close()
	}()
	stdout := bufio.NewScanner(pr)
	nextLine := func(prefix string) string {
		t.Helper()
		if !stdout.Scan() || !strings.HasPrefix(stdout.Text(), prefix) {
			t.Fatalf("stdout: got %q, want a line starting %q", stdout.Text(), prefix)
		}
		return strings.TrimPrefix(stdout.Text(), prefix)
	}
	tcpAddr := nextLine("irsrouter: tcp on ")
	httpAddr := nextLine("irsrouter: serving on http://")
	metrics := func() string {
		t.Helper()
		resp, err := http.Get("http://" + httpAddr + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return string(body)
	}
	if m := metrics(); !strings.Contains(m, "irsd_cluster_map_epoch 1\n") || !strings.Contains(m, "irsd_cluster_partitions 3\n") {
		t.Fatalf("boot metrics lack map epoch 1 over 3 partitions:\n%s", m)
	}

	var served, failed atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		enc, addr := []string{client.EncodingJSON, client.EncodingBinary, client.EncodingTCP}[g%3], httpAddr
		if enc == client.EncodingTCP {
			addr = tcpAddr
		}
		cl, err := client.Dial(addr, enc)
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				// [10, 190] spans all three partitions under both maps.
				out, err := cl.Sample(ctx, "d", 10, 190, 8)
				if err != nil || len(out) != 8 {
					failed.Add(1)
					t.Errorf("sample over %s: %d samples, err %v", enc, len(out), err)
					return
				}
				served.Add(1)
			}
		}()
	}
	// waitServed lets the callers get n more requests through.
	waitServed := func(n int64) {
		t.Helper()
		target := served.Load() + n
		for deadline := time.Now().Add(20 * time.Second); served.Load() < target && failed.Load() == 0; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("callers stalled at %d served", served.Load())
			}
		}
	}
	waitServed(200)
	writeConf(50, 150)
	reload <- syscall.SIGHUP
	for deadline := time.Now().Add(20 * time.Second); !strings.Contains(metrics(), "irsd_cluster_map_epoch 2\n"); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("map epoch did not reach 2 after the reload")
		}
	}
	waitServed(200)
	close(stop)
	wg.Wait()
	if failed.Load() != 0 {
		t.Fatalf("%d requests failed across the map swap (%d served)", failed.Load(), served.Load())
	}
	if m := metrics(); !strings.Contains(m, "irsd_cluster_map_epoch 2\n") || !strings.Contains(m, `irsd_config_reloads_total{status="ok"} 2`+"\n") {
		t.Fatalf("metrics after the reload lack map epoch 2 and two accepted configs (boot + reload):\n%s", m)
	}

	cancel()
	nextLine("irsrouter: drained, bye")
	if code := <-exit; code != 0 {
		t.Fatalf("exit %d after a clean drain, want 0", code)
	}
}
