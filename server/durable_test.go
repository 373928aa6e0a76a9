package server_test

import (
	"context"
	"errors"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"github.com/irsgo/irs/server"
)

// newDurableServer recovers a Server over a data directory: one durable
// unweighted dataset "du" and one durable weighted dataset "dw" — the
// public API's equivalent of irsd -data-dir.
func newDurableServer(t *testing.T, dir string) *server.Server {
	t.Helper()
	s := server.New(server.Config{})
	for name, weighted := range map[string]bool{"du": false, "dw": true} {
		if _, err := s.AddDurable(name, weighted, server.DurableOptions{
			Dir: filepath.Join(dir, name), Sync: server.SyncAlways, Shards: 2, Seed: 5,
		}); err != nil {
			t.Fatalf("AddDurable %s: %v", name, err)
		}
	}
	return s
}

// newDurableDaemon is newDurableServer behind a live listener.
func newDurableDaemon(t *testing.T, dir string) (*server.Server, *server.Client, func()) {
	t.Helper()
	s := newDurableServer(t, dir)
	ts := httptest.NewServer(s)
	return s, server.NewClient(ts.URL), func() {
		ts.Close()
		_ = s.Close()
	}
}

func dsStats(t *testing.T, cl *server.Client, name string) server.DatasetStats {
	t.Helper()
	st, err := cl.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range st.Datasets {
		if d.Name == name {
			return d
		}
	}
	t.Fatalf("dataset %q missing from stats", name)
	return server.DatasetStats{}
}

// TestHTTPDurableRestart drives the whole durable protocol through HTTP:
// mutate, stop the daemon abruptly (no graceful Close — SyncAlways makes
// every acknowledged request durable), boot a second daemon on the same
// directory, and verify state, stats, and serving all survived.
func TestHTTPDurableRestart(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	s1 := newDurableServer(t, dir)
	ts1 := httptest.NewServer(s1)
	cl := server.NewClient(ts1.URL)

	keys := make([]float64, 500)
	for i := range keys {
		keys[i] = float64(i)
	}
	if n, err := cl.InsertKeys(ctx, "du", keys); err != nil || n != 500 {
		t.Fatalf("insert du: n=%d err=%v", n, err)
	}
	if n, err := cl.Delete(ctx, "du", keys[:50]); err != nil || n != 50 {
		t.Fatalf("delete du: n=%d err=%v", n, err)
	}
	witems := make([]server.Item, 200)
	for i := range witems {
		witems[i] = server.Item{Key: float64(i), Weight: float64(i + 1)}
	}
	if n, err := cl.InsertItems(ctx, "dw", witems); err != nil || n != 200 {
		t.Fatalf("insert dw: n=%d err=%v", n, err)
	}
	if n, err := cl.Update(ctx, "dw", []server.Item{{Key: 7, Weight: 1000}}); err != nil || n != 1 {
		t.Fatalf("update dw: n=%d err=%v", n, err)
	}
	// Snapshot the weighted dataset so its recovery exercises
	// snapshot-plus-tail; the unweighted one recovers from WAL alone.
	snap, err := cl.Snapshot(ctx, "dw")
	if err != nil || snap.Items != 200 {
		t.Fatalf("snapshot dw: %+v err=%v", snap, err)
	}
	if n, err := cl.Update(ctx, "dw", []server.Item{{Key: 8, Weight: 2000}}); err != nil || n != 1 {
		t.Fatalf("post-snapshot update dw: n=%d err=%v", n, err)
	}
	// Abrupt stop: close the listener, abandon the server un-drained.
	ts1.Close()

	s2, cl2, stop2 := newDurableDaemon(t, dir)
	defer stop2()
	_ = s2

	du := dsStats(t, cl2, "du")
	if du.Len != 450 {
		t.Fatalf("recovered du len %d, want 450", du.Len)
	}
	if !du.Durable || du.Persist == nil || du.Persist.Recovery.RecordsReplayed == 0 {
		t.Fatalf("du durability stats: %+v", du.Persist)
	}
	dw := dsStats(t, cl2, "dw")
	if dw.Len != 200 {
		t.Fatalf("recovered dw len %d, want 200", dw.Len)
	}
	if dw.Persist == nil || dw.Persist.Recovery.SnapshotEntries != 200 {
		t.Fatalf("dw did not recover through its snapshot: %+v", dw.Persist)
	}
	// The re-weighted keys must dominate samples over their neighborhood:
	// keys 7 and 8 carry weight 1000 and 2000 of the ~1020 the rest of
	// [0,20] holds. Statistical details are covered by the chi-square
	// suites; here a sanity majority check proves weights survived.
	got, err := cl2.Sample(ctx, "dw", 0, 20, 400)
	if err != nil {
		t.Fatal(err)
	}
	heavy := 0
	for _, k := range got {
		if k == 7 || k == 8 {
			heavy++
		}
	}
	if heavy < 200 {
		t.Fatalf("recovered weights lost: heavy keys drew %d/400", heavy)
	}
	// The recovered daemon keeps serving mutations.
	if n, err := cl2.InsertKeys(ctx, "du", []float64{9999}); err != nil || n != 1 {
		t.Fatalf("post-recovery insert: n=%d err=%v", n, err)
	}
}

// TestHTTPUpdateAndSnapshotErrors covers the new endpoints' error paths
// end to end, including the client's sentinel mapping.
func TestHTTPUpdateAndSnapshotErrors(t *testing.T) {
	_, cl, _, stop := newTestDaemon(t, server.Config{}, 100)
	defer stop()
	ctx := context.Background()

	if _, err := cl.Update(ctx, "u", []server.Item{{Key: 1, Weight: 2}}); !errors.Is(err, server.ErrNotWeighted) {
		t.Fatalf("update on unweighted: %v", err)
	}
	if _, err := cl.Update(ctx, "w", []server.Item{{Key: 1, Weight: -3}}); !errors.Is(err, server.ErrInvalidWeight) {
		t.Fatalf("update with bad weight: %v", err)
	}
	if _, err := cl.Update(ctx, "none", nil); !errors.Is(err, server.ErrUnknownDataset) {
		t.Fatalf("update on unknown: %v", err)
	}
	// The test daemon's datasets are memory-only.
	if _, err := cl.Snapshot(ctx, "w"); !errors.Is(err, server.ErrNotDurable) {
		t.Fatalf("snapshot on memory-only: %v", err)
	}
	var apiErr *server.APIError
	if _, err := cl.Snapshot(ctx, "u"); !errors.As(err, &apiErr) || apiErr.Code != "not_durable" {
		t.Fatalf("snapshot wire code: %v", err)
	}
	// Updates that hit absent keys report 0 without error.
	if n, err := cl.Update(ctx, "w", []server.Item{{Key: 1e9, Weight: 5}}); err != nil || n != 0 {
		t.Fatalf("update absent key: n=%d err=%v", n, err)
	}
}

// TestHTTPDurableFreshDirServes: a durable dataset over an empty directory
// starts empty and works immediately.
func TestHTTPDurableFreshDirServes(t *testing.T) {
	_, cl, stop := newDurableDaemon(t, t.TempDir())
	defer stop()
	ctx := context.Background()
	if d := dsStats(t, cl, "du"); d.Len != 0 || !d.Durable {
		t.Fatalf("fresh durable dataset: %+v", d)
	}
	if _, err := cl.Sample(ctx, "du", 0, 10, 1); !errors.Is(err, server.ErrEmptyRange) {
		t.Fatalf("sample on empty durable dataset: %v", err)
	}
	if n, err := cl.InsertKeys(ctx, "du", []float64{1, 2, 3}); err != nil || n != 3 {
		t.Fatalf("insert: n=%d err=%v", n, err)
	}
	if snap, err := cl.Snapshot(ctx, "du"); err != nil || snap.Items != 3 {
		t.Fatalf("snapshot: %+v err=%v", snap, err)
	}
}
