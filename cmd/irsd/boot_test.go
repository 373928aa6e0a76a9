package main

import (
	"bufio"
	"bytes"
	"context"
	"flag"
	"io"
	"math"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"github.com/irsgo/irs/client"
	"github.com/irsgo/irs/internal/cluster"
	"github.com/irsgo/irs/internal/daemon"
	"github.com/irsgo/irs/internal/spec"
	"github.com/irsgo/irs/server"
)

// runDaemon boots irsd in-process on a free port with args and returns its
// HTTP address and a stop that drains it and returns the exit code (also
// run at cleanup).
func runDaemon(t *testing.T, args ...string) (addr string, stop func() int) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	pr, pw := io.Pipe()
	exit := make(chan int, 1)
	go func() {
		exit <- daemon.Run(ctx, nil, append([]string{"-addr", "127.0.0.1:0"}, args...), pw, app())
		_ = pw.Close()
	}()
	var code int
	var once sync.Once
	stop = func() int {
		once.Do(func() { cancel(); code = <-exit })
		return code
	}
	t.Cleanup(func() { stop() })
	const prefix = "irsd: serving on http://"
	sc := bufio.NewScanner(pr)
	if !sc.Scan() || !strings.HasPrefix(sc.Text(), prefix) {
		go func() { _, _ = io.Copy(io.Discard, pr) }()
		t.Fatalf("stdout: got %q, want a line starting %q", sc.Text(), prefix)
	}
	go func() { _, _ = io.Copy(io.Discard, pr) }() // the bye line
	return strings.TrimPrefix(sc.Text(), prefix), stop
}

// TestFlagSet pins irsd's flags, the common ones included, and that the
// flags removed from it are rejected as unknown. A flag joins or leaves
// this list together with its row in DESIGN.md "Daemon runtime"'s flag
// table, which gives its default and the deployment reason to set it.
func TestFlagSet(t *testing.T) {
	a := app()
	a.Flags.SetOutput(io.Discard)
	if code := daemon.Run(context.Background(), nil, []string{"-h"}, io.Discard, a); code != 0 {
		t.Fatalf("-h exits %d, want 0", code)
	}
	var got []string
	a.Flags.VisitAll(func(f *flag.Flag) { got = append(got, f.Name) })
	want := []string{
		// common to both daemons (internal/daemon)
		"addr", "config", "idle-timeout", "log-format", "pprof", "read-header-timeout", "seed", "tcp-addr",
		// irsd's own
		"config-poll", "data-dir", "datasets", "fsync", "fsync-interval", "queue", "shards", "snapshot-every",
	}
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Fatalf("irsd flags = %v,\nwant %v (update DESIGN.md's flag table with this list)", got, want)
	}
	for _, gone := range []string{"preload", "recover-concurrency", "max-batch", "flushers", "coalesce-window"} {
		a := app()
		var out bytes.Buffer
		a.Flags.SetOutput(&out)
		code := daemon.Run(context.Background(), nil, []string{"-" + gone, "1"}, io.Discard, a)
		if code != 2 || !strings.Contains(out.String(), "flag provided but not defined: -"+gone) {
			t.Errorf("-%s: exit %d, output %q; want 2 and an undefined-flag error", gone, code, out.String())
		}
	}
}

// datasetStats returns the named dataset's stats, failing the test when it
// is absent.
func datasetStats(t *testing.T, st server.Stats, name string) server.DatasetStats {
	t.Helper()
	for _, ds := range st.Datasets {
		if ds.Name == name {
			return ds
		}
	}
	t.Fatalf("dataset %q missing from stats", name)
	return server.DatasetStats{}
}

// TestBootAndRuntimeProvisioningAgree: a dataset created by POST /datasets
// is built exactly like one named at boot — same kind, shards and
// durability — and a second boot on the data directory recovers every
// dataset's items, whichever way it was created.
func TestBootAndRuntimeProvisioningAgree(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	addr, stop := runDaemon(t, "-datasets", "a,b:weighted", "-data-dir", dir, "-shards", "3")
	cl := server.NewClient("http://" + addr)
	if err := cl.AddDataset(ctx, "c", true); err != nil {
		t.Fatalf("POST /datasets c: %v", err)
	}
	st, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	b, c := datasetStats(t, st, "b"), datasetStats(t, st, "c")
	if b.Kind != "weighted" || c.Kind != b.Kind || c.Shards != b.Shards || !b.Durable || !c.Durable || b.Shards < 1 {
		t.Fatalf("boot-time b and runtime c differ: b = {%s %d shards durable=%v}, c = {%s %d shards durable=%v}",
			b.Kind, b.Shards, b.Durable, c.Kind, c.Shards, c.Durable)
	}
	if _, err := cl.InsertKeys(ctx, "a", []float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	for name, items := range map[string][]server.Item{
		"b": {{Key: 1, Weight: 2}, {Key: 3, Weight: 4}},
		"c": {{Key: 5, Weight: 1}, {Key: 6, Weight: 2}, {Key: 7, Weight: 3}},
	} {
		if _, err := cl.InsertItems(ctx, name, items); err != nil {
			t.Fatal(err)
		}
	}
	if code := stop(); code != 0 {
		t.Fatalf("drain exits %d", code)
	}

	addr, _ = runDaemon(t, "-datasets", "a,b:weighted,c:weighted", "-data-dir", dir, "-shards", "3")
	if st, err = server.NewClient("http://" + addr).Stats(ctx); err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]struct {
		len  int
		mass float64
	}{"a": {3, 3}, "b": {2, 6}, "c": {3, 6}} {
		if ds := datasetStats(t, st, name); ds.Len != want.len || ds.Mass != want.mass {
			t.Errorf("dataset %q recovered %d items of mass %v, want %d of %v", name, ds.Len, ds.Mass, want.len, want.mass)
		}
	}
}

// TestDatasetsDrawIndependently: two datasets of one irsd holding the same
// keys, asked the same queries, draw unrelated samples — each dataset's
// seed derives from its name, so equal draws happen at chance level
// (1/keys per sample). One flusher makes each dataset's draws a pure
// function of its seed and its queries: were the seeds equal, every
// sample would match.
func TestDatasetsDrawIndependently(t *testing.T) {
	s := server.New(server.Config{Flushers: 1})
	defer s.Close()
	s.SetProvisioner(provisioner(s, discardLogger(), 2, 1, "", 0, 0))
	list, err := spec.ParseDatasets("x,y")
	if err != nil {
		t.Fatal(err)
	}
	if err := addDatasets(s, list, 1); err != nil {
		t.Fatal(err)
	}
	const n, queries, per = 1000, 50, 64
	keys := make([]float64, n)
	for i := range keys {
		keys[i] = float64(i)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()
	cl := server.NewClient(ts.URL)
	ctx := context.Background()
	for _, name := range []string{"x", "y"} {
		if _, err := cl.InsertKeys(ctx, name, keys); err != nil {
			t.Fatal(err)
		}
	}
	equal := 0
	for range queries {
		x, err := cl.Sample(ctx, "x", 0, n-1, per)
		if err != nil {
			t.Fatal(err)
		}
		y, err := cl.Sample(ctx, "y", 0, n-1, per)
		if err != nil {
			t.Fatal(err)
		}
		for i := range x {
			if x[i] == y[i] {
				equal++
			}
		}
	}
	// Chance is queries·per/n = 3.2 equal draws; 16 is over 7σ above it.
	if equal > 16 {
		t.Fatalf("%d of %d draws equal across datasets x and y (chance: %.1f)", equal, queries*per, float64(queries*per)/n)
	}
}

// TestNodesAtDefaultSeedDrawIndependently: two irsd nodes booted at their
// default seed, holding mirrored halves of a keyset behind a router, draw
// unrelated samples. Each node draws its seed at boot, so the two draws of
// a spanning t = 2 sample sit at equal relative rank at chance level
// (1/keys). GOMAXPROCS 1 at boot gives each node one shard and one
// flusher, so its draws are a pure function of its seed and its queries:
// were the seeds equal, every spanning sample would be mirrored.
func TestNodesAtDefaultSeedDrawIndependently(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const n, queries = 1000, 400
	ctx := context.Background()
	parts := []cluster.Partition{{Lo: math.Inf(-1), Hi: n - 0.5}, {Lo: n - 0.5, Hi: math.Inf(1)}}
	var conns []client.Conn
	for i := range parts {
		addr, _ := runDaemon(t, "-datasets", "d")
		parts[i].Addr = addr
		c, err := client.Dial(addr, client.EncodingTCP)
		if err != nil {
			t.Fatal(err)
		}
		conns = append(conns, c)
		keys := make([]float64, n)
		for j := range keys {
			keys[j] = float64(i*n + j)
		}
		if _, err := c.InsertKeys(ctx, "d", keys); err != nil {
			t.Fatal(err)
		}
	}
	m, err := cluster.New(parts)
	if err != nil {
		t.Fatal(err)
	}
	router, err := cluster.NewRouter(m, conns, cluster.Options{Datasets: []string{"d"}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	spanning, mirrored := 0, 0
	for range queries {
		s, err := router.SampleAppend("d", nil, 0, 2*n-1, 2)
		if err != nil {
			t.Fatal(err)
		}
		lo, hi := min(s[0], s[1]), max(s[0], s[1])
		if lo >= n || hi < n {
			continue // both draws from one node
		}
		spanning++
		if hi-n == lo {
			mirrored++
		}
	}
	// About half the queries span; chance is spanning/n ≈ 0.2 mirrored.
	if spanning < queries/4 {
		t.Fatalf("only %d of %d samples spanned both nodes", spanning, queries)
	}
	if mirrored > 5 {
		t.Fatalf("%d of %d spanning samples drew equal relative ranks on both nodes (chance: %.2f)", mirrored, spanning, float64(spanning)/n)
	}
}
