package server_test

import (
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/irsgo/irs/server"
)

// get issues one GET against the server and returns status and body.
func get(t *testing.T, s *server.Server, path string) (int, string) {
	t.Helper()
	req := httptest.NewRequest("GET", path, nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec.Code, rec.Body.String()
}

// TestReadyzProbeOrdering pins the readiness lifecycle an orchestrator
// depends on: /readyz is 503 while boot recovery is still running (a
// gated fake File holds the WAL open hostage), 200 once recovery
// completes and SetReady runs, and 503 again the moment drain starts —
// while a request already in flight still completes. /healthz stays 200
// throughout: a starting or draining daemon is alive.
func TestReadyzProbeOrdering(t *testing.T) {
	dir := t.TempDir()
	// A generous coalesce window keeps the drain-phase sample request in
	// flight long enough to probe around it.
	s := server.New(server.Config{CoalesceWindow: 50 * time.Millisecond})

	if code, body := get(t, s, "/healthz"); code != 200 || body != "ok\n" {
		t.Fatalf("/healthz before boot: %d %q", code, body)
	}
	if code, body := get(t, s, "/readyz"); code != 503 || body != "starting\n" {
		t.Fatalf("/readyz before boot: %d %q, want 503 starting", code, body)
	}

	// Boot recovery on its own goroutine, gated: OpenFile blocks until the
	// gate opens, exactly like a slow disk holding up WAL recovery. The
	// irsd sequence is addDatasets then SetReady; mirror it.
	gate := make(chan struct{})
	booted := make(chan error, 1)
	go func() {
		_, err := s.AddDurable("du", false, server.DurableOptions{
			Dir:  filepath.Join(dir, "du"),
			Sync: server.SyncAlways,
			OpenFile: func(path string) (server.File, error) {
				<-gate // closed once the test has probed the starting state
				return os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
			},
		})
		if err == nil {
			s.SetReady()
		}
		booted <- err
	}()

	// Recovery cannot have finished: its segment open is parked on the
	// gate. Readiness must still say starting.
	if code, body := get(t, s, "/readyz"); code != 503 || body != "starting\n" {
		t.Fatalf("/readyz during recovery: %d %q, want 503 starting", code, body)
	}
	if s.Ready() {
		t.Fatal("Ready() true while recovery is gated")
	}

	close(gate)
	if err := <-booted; err != nil {
		t.Fatalf("gated recovery failed: %v", err)
	}
	defer func() {
		if err := s.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
	}()
	if code, body := get(t, s, "/readyz"); code != 200 || body != "ready\n" {
		t.Fatalf("/readyz after recovery: %d %q, want 200 ready", code, body)
	}

	ts := httptest.NewServer(s)
	defer ts.Close()
	cl := server.NewClient(ts.URL)
	ctx := context.Background()
	if _, err := cl.InsertKeys(ctx, "du", []float64{1, 2, 3, 4, 5}); err != nil {
		t.Fatalf("insert: %v", err)
	}

	// Launch a sample that will linger in the coalescer window, start the
	// drain mid-flight, and verify ordering: readiness drops first, the
	// in-flight request still answers.
	type sampled struct {
		keys []float64
		err  error
	}
	inflight := make(chan sampled, 1)
	go func() {
		keys, err := cl.Sample(ctx, "du", 0, 10, 3)
		inflight <- sampled{keys, err}
	}()
	time.Sleep(10 * time.Millisecond) // well inside the 50ms window
	s.SetDraining()
	if code, body := get(t, s, "/readyz"); code != 503 || body != "draining\n" {
		t.Fatalf("/readyz during drain: %d %q, want 503 draining", code, body)
	}
	if code, _ := get(t, s, "/healthz"); code != 200 {
		t.Fatalf("/healthz during drain: %d, want 200 (draining is alive)", code)
	}
	res := <-inflight
	if res.err != nil || len(res.keys) != 3 {
		t.Fatalf("in-flight sample during drain: keys=%v err=%v", res.keys, res.err)
	}

	// Draining is terminal: a late SetReady (SIGTERM landed during boot,
	// recovery finished afterwards) must not resurrect readiness.
	s.SetReady()
	if code, _ := get(t, s, "/readyz"); code != 503 {
		t.Fatalf("/readyz after SetReady post-drain: %d, want 503 (draining wins)", code)
	}
}

// TestPprofGating pins the opt-in: /debug/pprof/ is 404 until
// EnablePprof, then serves the index.
func TestPprofGating(t *testing.T) {
	s := server.New(server.Config{})
	if code, _ := get(t, s, "/debug/pprof/"); code != 404 {
		t.Fatalf("/debug/pprof/ without -pprof: %d, want 404", code)
	}
	s.EnablePprof()
	code, body := get(t, s, "/debug/pprof/")
	if code != 200 || !strings.Contains(body, "goroutine") {
		t.Fatalf("/debug/pprof/ with -pprof: %d (index should list profiles)", code)
	}
}

// parseExposition structurally validates Prometheus text format and
// returns the samples as name{sortedlabels} -> value. It enforces what a
// scraper enforces: every sample's name (or its _bucket/_sum/_count
// expansion) is declared by a # TYPE, and all samples of one family are
// contiguous.
func parseExposition(t *testing.T, text string) map[string]float64 {
	t.Helper()
	samples := make(map[string]float64)
	typed := make(map[string]string) // family -> type
	seenFamily := make(map[string]bool)
	current := ""
	family := func(name string) string {
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			base := strings.TrimSuffix(name, suf)
			if base != name && typed[base] == "histogram" {
				return base
			}
		}
		return name
	}
	for ln, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("line %d: malformed TYPE: %q", ln+1, line)
			}
			if typed[parts[2]] != "" {
				t.Fatalf("line %d: duplicate TYPE for %s", ln+1, parts[2])
			}
			typed[parts[2]] = parts[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("line %d: no value separator: %q", ln+1, line)
		}
		key, val := line[:sp], line[sp+1:]
		name := key
		if i := strings.IndexByte(key, '{'); i >= 0 {
			name = key[:i]
			labels := strings.TrimSuffix(key[i+1:], "}")
			parts := strings.Split(labels, ",")
			sort.Strings(parts)
			key = name + "{" + strings.Join(parts, ",") + "}"
		}
		fam := family(name)
		if typed[fam] == "" {
			t.Fatalf("line %d: sample %s has no preceding # TYPE", ln+1, name)
		}
		if fam != current {
			if seenFamily[fam] {
				t.Fatalf("line %d: family %s split into non-contiguous blocks", ln+1, fam)
			}
			seenFamily[fam] = true
			current = fam
		}
		f, err := strconv.ParseFloat(val, 64)
		if err != nil {
			t.Fatalf("line %d: bad value %q: %v", ln+1, val, err)
		}
		if _, dup := samples[key]; dup {
			t.Fatalf("line %d: duplicate sample %s", ln+1, key)
		}
		samples[key] = f
	}
	return samples
}

// TestMetricsExposition drives real traffic through a durable server and
// asserts /metrics serves structurally valid Prometheus text whose key
// series carry sane values: request-latency and fsync-latency histograms
// populated, coalescing ratio and queue depth present, readiness and
// build identity reported.
func TestMetricsExposition(t *testing.T) {
	s, cl, closeAll := newDurableDaemon(t, t.TempDir())
	defer closeAll()
	s.SetReady()
	s.SetVersion("test-build")
	ctx := context.Background()

	keys := make([]float64, 100)
	for i := range keys {
		keys[i] = float64(i)
	}
	if _, err := cl.InsertKeys(ctx, "du", keys); err != nil {
		t.Fatalf("insert: %v", err)
	}
	for i := 0; i < 10; i++ {
		if _, err := cl.Sample(ctx, "du", 0, 100, 8); err != nil {
			t.Fatalf("sample: %v", err)
		}
	}
	if _, err := cl.Delete(ctx, "du", keys[:5]); err != nil {
		t.Fatalf("delete: %v", err)
	}

	req := httptest.NewRequest("GET", "/metrics", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != 200 {
		t.Fatalf("GET /metrics: %d: %s", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("Content-Type %q lacks exposition version", ct)
	}
	samples := parseExposition(t, rec.Body.String())

	want := func(key string, ok func(v float64) bool, desc string) {
		t.Helper()
		v, present := samples[key]
		if !present {
			t.Fatalf("series %s missing from /metrics", key)
		}
		if !ok(v) {
			t.Fatalf("series %s = %v, want %s", key, v, desc)
		}
	}
	pos := func(v float64) bool { return v > 0 }
	zero := func(v float64) bool { return v == 0 }

	want(`irsd_build_info{go="`+runtime.Version()+`",version="test-build"}`, func(v float64) bool { return v == 1 }, "1")
	want("irsd_server_ready", func(v float64) bool { return v == 1 }, "1 (SetReady ran)")
	want(`irsd_dataset_sample_requests_total{dataset="du"}`, func(v float64) bool { return v == 10 }, "10")
	want(`irsd_dataset_items_inserted_total{dataset="du"}`, func(v float64) bool { return v == 100 }, "100")
	want(`irsd_dataset_keys_deleted_total{dataset="du"}`, func(v float64) bool { return v == 5 }, "5")
	want(`irsd_http_request_duration_seconds_count{encoding="json"}`, pos, "> 0 (12 timed requests)")
	want(`irsd_http_request_duration_seconds_bucket{encoding="json",le="+Inf"}`,
		func(v float64) bool { return v == samples[`irsd_http_request_duration_seconds_count{encoding="json"}`] },
		"+Inf bucket == count")
	want(`irsd_wal_fsync_duration_seconds_count{dataset="du"}`, pos, "> 0 under SyncAlways")
	want(`irsd_wal_sync_error{dataset="du"}`, zero, "0 (healthy WAL)")
	want(`irsd_coalescer_ratio{dataset="du",path="sample"}`, func(v float64) bool { return v >= 1 }, ">= 1")
	want(`irsd_coalescer_queue_depth{dataset="du",path="sample"}`, zero, "0 at rest")
	want(`irsd_recovery_duration_seconds{dataset="du"}`, func(v float64) bool { return v >= 0 }, ">= 0")

	// Histogram self-consistency across every histogram family exposed.
	for key, v := range samples {
		if !strings.HasSuffix(metricName(key), "_count") {
			continue
		}
		inf := strings.Replace(key, "_count", "_bucket", 1)
		if i := strings.IndexByte(inf, '{'); i >= 0 {
			inf = inf[:len(inf)-1] + `,le="+Inf"}`
		} else {
			inf += `{le="+Inf"}`
		}
		if bv, ok := samples[sortLabels(inf)]; ok && bv != v {
			t.Fatalf("%s = %v but +Inf bucket = %v", key, v, bv)
		}
	}

	// POST must be rejected: scrapes are GETs.
	preq := httptest.NewRequest("POST", "/metrics", nil)
	prec := httptest.NewRecorder()
	s.ServeHTTP(prec, preq)
	if prec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST /metrics: %d, want 405", prec.Code)
	}
}

func metricName(key string) string {
	if i := strings.IndexByte(key, '{'); i >= 0 {
		return key[:i]
	}
	return key
}

func sortLabels(key string) string {
	i := strings.IndexByte(key, '{')
	if i < 0 {
		return key
	}
	parts := strings.Split(strings.TrimSuffix(key[i+1:], "}"), ",")
	sort.Strings(parts)
	return key[:i] + "{" + strings.Join(parts, ",") + "}"
}
