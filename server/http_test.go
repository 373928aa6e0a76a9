package server_test

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	irs "github.com/irsgo/irs"
	"github.com/irsgo/irs/internal/cluster"
	srv "github.com/irsgo/irs/internal/server"
	"github.com/irsgo/irs/server"
)

// The contract that lets one set of transports serve a node and a cluster:
// the local core and the router both satisfy Backend.
var (
	_ server.Backend = (*srv.Core[float64])(nil)
	_ server.Backend = (*cluster.Router)(nil)
)

// newTestDaemon spins up the full HTTP stack: a Server with an unweighted
// dataset "u" (keys 0..n-1, each once) and a weighted dataset "w" (keys
// 0..99 with weight k+1), behind httptest. The returned function stops
// both.
func newTestDaemon(t *testing.T, cfg server.Config, n int) (*server.Server, *server.Client, string, func()) {
	t.Helper()
	s := server.New(cfg)

	keys := make([]float64, n)
	for i := range keys {
		keys[i] = float64(i)
	}
	u, err := irs.NewConcurrentFromSortedSeeded(keys, 4, 11)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddUnweighted("u", u); err != nil {
		t.Fatal(err)
	}

	w := irs.NewWeightedConcurrent[float64](4, 11)
	items := make([]irs.WeightedItem[float64], 100)
	for i := range items {
		items[i] = irs.WeightedItem[float64]{Key: float64(i), Weight: float64(i + 1)}
	}
	if err := w.InsertBatch(items); err != nil {
		t.Fatal(err)
	}
	if err := s.AddWeighted("w", w); err != nil {
		t.Fatal(err)
	}

	ts := httptest.NewServer(s)
	return s, server.NewClient(ts.URL), ts.URL, func() {
		ts.Close()
		s.Close()
	}
}

// TestHTTPErrorPaths: every malformed or unservable request returns a
// typed, machine-readable error with the right status — and never panics.
func TestHTTPErrorPaths(t *testing.T) {
	_, cl, base, stop := newTestDaemon(t, server.Config{}, 1000)
	defer stop()
	ctx := context.Background()

	post := func(path, body string) (int, string) {
		t.Helper()
		resp, err := http.Post(base+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf [512]byte
		n, _ := resp.Body.Read(buf[:])
		return resp.StatusCode, string(buf[:n])
	}

	// Malformed JSON bodies.
	for _, body := range []string{`{"lo":`, `not json`, `{"lo":1,"bogus":2}`, ``} {
		status, got := post("/sample", body)
		if status != http.StatusBadRequest || !strings.Contains(got, `"bad_request"`) {
			t.Errorf("body %q: status=%d body=%s", body, status, got)
		}
	}
	// Wrong methods and unknown endpoints.
	get := func(path string) int {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if status := get("/sample"); status != http.StatusMethodNotAllowed {
		t.Errorf("GET /sample: %d", status)
	}
	if status, got := post("/stats", `{}`); status != http.StatusMethodNotAllowed || !strings.Contains(got, "method_not_allowed") {
		t.Errorf("POST /stats: %d %s", status, got)
	}
	if status := get("/nope"); status != http.StatusNotFound {
		t.Errorf("GET /nope: %d", status)
	}

	// Typed validation errors through the client: each must unwrap to its
	// sentinel and carry the right HTTP status.
	cases := []struct {
		name   string
		do     func() error
		want   error
		status int
	}{
		{"inverted range", func() error { _, err := cl.Sample(ctx, "u", 10, 0, 1); return err }, server.ErrInvalidRange, 400},
		{"t=0", func() error { _, err := cl.Sample(ctx, "u", 0, 10, 0); return err }, server.ErrInvalidCount, 400},
		{"t<0", func() error { _, err := cl.Sample(ctx, "u", 0, 10, -1); return err }, server.ErrInvalidCount, 400},
		{"unknown dataset", func() error { _, err := cl.Sample(ctx, "zzz", 0, 10, 1); return err }, server.ErrUnknownDataset, 404},
		{"ambiguous dataset", func() error { _, err := cl.Sample(ctx, "", 0, 10, 1); return err }, server.ErrAmbiguousDataset, 400},
		{"empty range", func() error { _, err := cl.Sample(ctx, "u", 5000, 6000, 1); return err }, server.ErrEmptyRange, 422},
		{"invalid weight", func() error {
			_, err := cl.InsertItems(ctx, "w", []server.Item{{Key: 1, Weight: -1}})
			return err
		}, server.ErrInvalidWeight, 400},
	}
	for _, tc := range cases {
		err := tc.do()
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
			continue
		}
		var api *server.APIError
		if !errors.As(err, &api) || api.Status != tc.status {
			t.Errorf("%s: api error = %+v, want status %d", tc.name, api, tc.status)
		}
	}
}

// TestHTTPRoundTrip: insert, sample, delete, stats through the typed
// client against both dataset kinds.
func TestHTTPRoundTrip(t *testing.T) {
	_, cl, _, stop := newTestDaemon(t, server.Config{}, 1000)
	defer stop()
	ctx := context.Background()

	if n, err := cl.InsertKeys(ctx, "u", []float64{5000, 5001, 5002}); err != nil || n != 3 {
		t.Fatalf("InsertKeys: %d, %v", n, err)
	}
	out, err := cl.Sample(ctx, "u", 5000, 5002, 12)
	if err != nil || len(out) != 12 {
		t.Fatalf("Sample: %v, %v", out, err)
	}
	for _, k := range out {
		if k < 5000 || k > 5002 {
			t.Fatalf("sample %g out of range", k)
		}
	}
	if n, err := cl.Delete(ctx, "u", []float64{5000, 5001, 5002, 9999}); err != nil || n != 3 {
		t.Fatalf("Delete: %d, %v", n, err)
	}
	if _, err := cl.Sample(ctx, "u", 5000, 5002, 1); !errors.Is(err, server.ErrEmptyRange) {
		t.Fatalf("after delete: err = %v", err)
	}

	// Weighted: insert a dominating weight and observe it.
	if n, err := cl.InsertItems(ctx, "w", []server.Item{{Key: 7000, Weight: 1e9}}); err != nil || n != 1 {
		t.Fatalf("InsertItems: %d, %v", n, err)
	}
	wout, err := cl.Sample(ctx, "w", 0, 8000, 50)
	if err != nil {
		t.Fatal(err)
	}
	dominated := 0
	for _, k := range wout {
		if k == 7000 {
			dominated++
		}
	}
	if dominated < 45 { // total other weight is 5050 vs 1e9
		t.Fatalf("dominating weight sampled only %d/50 times", dominated)
	}

	st, err := cl.Stats(ctx)
	if err != nil || len(st.Datasets) != 2 {
		t.Fatalf("Stats: %+v, %v", st, err)
	}
	for _, d := range st.Datasets {
		if d.SampleRequests == 0 && d.Name == "u" {
			t.Fatalf("no accounted requests: %+v", d)
		}
	}
}

// TestHTTPQueueFullBackpressure: a tiny queue plus slow large-t flushes
// forces 503 overloaded responses while accepted requests still succeed.
func TestHTTPQueueFullBackpressure(t *testing.T) {
	_, cl, _, stop := newTestDaemon(t, server.Config{
		QueueDepth: 2, MaxBatch: 2, Flushers: 1,
	}, 50_000)
	defer stop()
	ctx := context.Background()

	// One wave of concurrent heavy requests; repeated (bounded) because
	// arrival simultaneity over real HTTP is probabilistic — the pipeline
	// holds at most ~8 requests, so a wave of 24 overflows it unless the
	// scheduler spreads arrivals across whole flush durations. t is large
	// enough that one flush comfortably exceeds the runtime's ~10ms async
	// preemption quantum: on GOMAXPROCS=1 hosts a shorter flush runs to
	// completion unpreempted and the queue drains before a third submitter
	// ever runs, so overload would never trigger.
	wave := func() (served, rejected int) {
		const clients = 24
		var wg sync.WaitGroup
		var mu sync.Mutex
		start := make(chan struct{})
		for g := 0; g < clients; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				_, err := cl.Sample(ctx, "u", 0, 49_999, 600_000)
				mu.Lock()
				defer mu.Unlock()
				switch {
				case err == nil:
					served++
				case errors.Is(err, server.ErrOverloaded):
					rejected++
				default:
					t.Errorf("unexpected error: %v", err)
				}
			}()
		}
		close(start)
		wg.Wait()
		return served, rejected
	}
	served, rejected := 0, 0
	for round := 0; round < 5 && (served == 0 || rejected == 0); round++ {
		s, r := wave()
		served += s
		rejected += r
	}
	if served == 0 || rejected == 0 {
		t.Fatalf("served=%d rejected=%d; want both backpressure and successes", served, rejected)
	}
	st, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range st.Datasets {
		if d.Name == "u" && int(d.SampleRejected) != rejected {
			t.Fatalf("rejected accounting: stats=%d client=%d", d.SampleRejected, rejected)
		}
	}
}

// TestHTTPShutdownWhileInflight: Close drains in-flight requests and
// answers later ones with 503 shutting_down; nothing panics.
func TestHTTPShutdownWhileInflight(t *testing.T) {
	s, cl, _, stop := newTestDaemon(t, server.Config{CoalesceWindow: 2 * time.Millisecond}, 1000)
	defer stop()
	ctx := context.Background()

	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for g := 0; g < 32; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := cl.Sample(ctx, "u", 0, 999, 4)
			errs <- err
		}()
	}
	s.Close()
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil && !errors.Is(err, server.ErrShuttingDown) {
			t.Fatalf("in-flight request: %v", err)
		}
	}
	if _, err := cl.Sample(ctx, "u", 0, 999, 1); !errors.Is(err, server.ErrShuttingDown) {
		t.Fatalf("after close: err = %v", err)
	}
	var api *server.APIError
	_, err := cl.Sample(ctx, "u", 0, 999, 1)
	if !errors.As(err, &api) || api.Status != http.StatusServiceUnavailable || api.Code != "shutting_down" {
		t.Fatalf("wire shape after close: %+v", api)
	}
	if _, err := cl.InsertKeys(ctx, "u", []float64{1}); !errors.Is(err, server.ErrShuttingDown) {
		t.Fatalf("insert after close: err = %v", err)
	}
	if _, err := cl.Delete(ctx, "u", []float64{1}); !errors.Is(err, server.ErrShuttingDown) {
		t.Fatalf("delete after close: err = %v", err)
	}
}
