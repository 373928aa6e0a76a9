package cluster_test

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	irs "github.com/irsgo/irs"
	"github.com/irsgo/irs/client"
	"github.com/irsgo/irs/internal/cluster"
	srv "github.com/irsgo/irs/internal/server"
	"github.com/irsgo/irs/internal/stats"
	"github.com/irsgo/irs/server"
	"github.com/irsgo/irs/server/irsnet"
)

// statAlpha mirrors the repository-wide convention: small enough that
// genuine bias — which moves the statistic by orders of magnitude — is
// still caught, while honest sampling noise essentially never rejects.
const statAlpha = 1e-4

// testCluster is a full in-process deployment: n irsd nodes behind
// httptest listeners, a Router over them, and that Router fronted by a
// proxy Server behind its own httptest listener — so requests travel
// client wire -> proxy -> router -> node wire, the same path a real
// deployment exercises minus the TCP sockets.
type testCluster struct {
	router *cluster.Router
	nodes  []*server.Server
	nodeTS []*httptest.Server
	proxy  *httptest.Server
	cl     client.Conn
}

// startCluster boots one node per adjacent pair in bounds, each loaded
// with the integer keys its partition owns (keys bounds[0] <= k <
// bounds[n], weighted with weight k+1 when weighted is set), and wires
// the whole stack with the given client encoding on both hops. For the tcp
// encoding every node and the proxy also serve irsnet, which both hops
// then dial; the partition map keeps naming the HTTP listeners.
func startCluster(t *testing.T, bounds []float64, weighted bool, encoding string, cfg server.Config) *testCluster {
	t.Helper()
	n := len(bounds) - 1
	tc := &testCluster{}
	parts := make([]cluster.Partition, n)
	conns := make([]client.Conn, n)
	for i := 0; i < n; i++ {
		s := server.New(cfg)
		lo, hi := bounds[i], bounds[i+1]
		if weighted {
			w := irs.NewWeightedConcurrent[float64](4, uint64(11+i))
			var items []irs.WeightedItem[float64]
			for k := lo; k < hi; k++ {
				items = append(items, irs.WeightedItem[float64]{Key: k, Weight: k + 1})
			}
			if err := w.InsertBatch(items); err != nil {
				t.Fatal(err)
			}
			if err := s.AddWeighted("d", w); err != nil {
				t.Fatal(err)
			}
		} else {
			u := irs.NewConcurrentSeeded[float64](4, uint64(11+i))
			var keys []float64
			for k := lo; k < hi; k++ {
				keys = append(keys, k)
			}
			u.InsertBatch(keys)
			if err := s.AddUnweighted("d", u); err != nil {
				t.Fatal(err)
			}
		}
		ts := httptest.NewServer(s)
		conn, err := client.Dial(dialAddr(t, s, ts.URL, encoding), encoding)
		if err != nil {
			t.Fatal(err)
		}
		tc.nodes = append(tc.nodes, s)
		tc.nodeTS = append(tc.nodeTS, ts)
		parts[i] = cluster.Partition{Addr: ts.URL, Lo: lo, Hi: hi}
		conns[i] = conn
	}
	m, err := cluster.New(parts)
	if err != nil {
		t.Fatal(err)
	}
	tc.router, err = cluster.NewRouter(m, conns, cluster.Options{
		Datasets: []string{"d"},
		Seed:     7,
		Timeout:  5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	proxy := server.NewProxy(tc.router)
	tc.proxy = httptest.NewServer(proxy)
	tc.cl, err = client.Dial(dialAddr(t, proxy, tc.proxy.URL, encoding), encoding)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tc.stop)
	return tc
}

// dialAddr is where a client of the given encoding reaches s: its HTTP
// listener, or for tcp a fresh irsnet listener stopped at cleanup.
func dialAddr(t *testing.T, s *server.Server, httpURL, encoding string) string {
	t.Helper()
	if encoding != client.EncodingTCP {
		return httpURL
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ts := irsnet.NewServer(s)
	served := make(chan error, 1)
	go func() { served <- ts.Serve(l) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = ts.Shutdown(ctx)
		<-served
	})
	return l.Addr().String()
}

func (tc *testCluster) stop() {
	tc.proxy.Close()
	for i, ts := range tc.nodeTS {
		ts.Close()
		tc.nodes[i].Close()
	}
}

func eachEncoding(t *testing.T, run func(t *testing.T, encoding string)) {
	t.Run("json", func(t *testing.T) { run(t, client.EncodingJSON) })
	t.Run("binary", func(t *testing.T) { run(t, client.EncodingBinary) })
}

// everyEncoding is eachEncoding plus the persistent TCP transport on both
// hops.
func everyEncoding(t *testing.T, run func(t *testing.T, encoding string)) {
	eachEncoding(t, run)
	t.Run("tcp", func(t *testing.T) { run(t, client.EncodingTCP) })
}

// sampleCounts draws clients x reqs requests of tPer samples over [lo, hi]
// through the cluster concurrently and returns how often each integer key
// in [0, keys) came up.
func sampleCounts(t *testing.T, tc *testCluster, keys, clients, reqs, tPer int, lo, hi float64) []int {
	t.Helper()
	ctx := context.Background()
	countsCh := make(chan []int, clients)
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			local := make([]int, keys)
			for i := 0; i < reqs; i++ {
				out, err := tc.cl.Sample(ctx, "d", lo, hi, tPer)
				if err != nil {
					t.Errorf("sample: %v", err)
					return
				}
				if len(out) != tPer {
					t.Errorf("sample: %d samples, want %d", len(out), tPer)
					return
				}
				for _, k := range out {
					local[int(k)]++
				}
			}
			countsCh <- local
		}()
	}
	wg.Wait()
	close(countsCh)
	counts := make([]int, keys)
	for local := range countsCh {
		for i, c := range local {
			counts[i] += c
		}
	}
	return counts
}

// weightProbs is the weight-proportional target over keys 0..n-1 with
// weight k+1.
func weightProbs(n int) []float64 {
	probs := make([]float64, n)
	total := 0.0
	for i := range probs {
		probs[i] = float64(i + 1)
		total += probs[i]
	}
	for i := range probs {
		probs[i] /= total
	}
	return probs
}

// TestRouterUniformityChiSquare: per-sample uniformity must survive the
// cluster split — node samples with their masses, multinomial over those
// masses, scatter — across three partitions, not just within one node.
// 300 keys over 3 nodes, 30k samples from concurrent clients, chi-square
// against uniform, over both encodings.
func TestRouterUniformityChiSquare(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical suite skipped with -short")
	}
	eachEncoding(t, func(t *testing.T, encoding string) {
		tc := startCluster(t, []float64{0, 100, 200, 300}, false, encoding, server.Config{})
		ctx := context.Background()

		const clients, reqs, tPer = 10, 150, 20
		countsCh := make(chan []int, clients)
		var wg sync.WaitGroup
		for g := 0; g < clients; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				local := make([]int, 300)
				for i := 0; i < reqs; i++ {
					out, err := tc.cl.Sample(ctx, "d", 0, 299, tPer)
					if err != nil {
						t.Errorf("sample: %v", err)
						return
					}
					for _, k := range out {
						local[int(k)]++
					}
				}
				countsCh <- local
			}()
		}
		wg.Wait()
		close(countsCh)
		counts := make([]int, 300)
		for local := range countsCh {
			for i, c := range local {
				counts[i] += c
			}
		}
		stat, df, err := stats.ChiSquareUniform(counts)
		if err != nil {
			t.Fatal(err)
		}
		if crit := stats.ChiSquareCritical(df, statAlpha); stat > crit {
			t.Fatalf("chi-square rejects uniformity through the router: stat=%.2f df=%d critical=%.2f", stat, df, crit)
		}
	})
}

// TestRouterWeightedProportionalChiSquare: the cross-partition multinomial
// must weight each partition by its in-range sampling mass, not its key
// count — with weight k+1 the third node holds ~2.8x the mass of the
// first despite equal key counts, so a count-proportional split fails this
// immediately.
func TestRouterWeightedProportionalChiSquare(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical suite skipped with -short")
	}
	eachEncoding(t, func(t *testing.T, encoding string) {
		tc := startCluster(t, []float64{0, 100, 200, 300}, true, encoding, server.Config{})
		ctx := context.Background()

		const clients, reqs, tPer = 10, 150, 20
		countsCh := make(chan []int, clients)
		var wg sync.WaitGroup
		for g := 0; g < clients; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				local := make([]int, 300)
				for i := 0; i < reqs; i++ {
					out, err := tc.cl.Sample(ctx, "d", 0, 299, tPer)
					if err != nil {
						t.Errorf("sample: %v", err)
						return
					}
					for _, k := range out {
						local[int(k)]++
					}
				}
				countsCh <- local
			}()
		}
		wg.Wait()
		close(countsCh)
		counts := make([]int, 300)
		for local := range countsCh {
			for i, c := range local {
				counts[i] += c
			}
		}
		probs := make([]float64, 300)
		totalW := 0.0
		for i := range probs {
			probs[i] = float64(i + 1)
			totalW += probs[i]
		}
		for i := range probs {
			probs[i] /= totalW
		}
		gof, err := stats.ChiSquareTest(counts, probs, statAlpha)
		if err != nil {
			t.Fatal(err)
		}
		if gof.Reject {
			t.Fatalf("chi-square rejects weight-proportionality through the router: stat=%.2f df=%d critical=%.2f",
				gof.Stat, gof.DF, gof.Critical)
		}
	})
}

// TestRouterIndependenceAcrossRequests: two concurrent t=1 requests over a
// range spanning all three partitions must stay mutually independent —
// the shared router RNG, the per-request probe, and any node-level
// coalescing must not correlate them. Joint distribution over the 10x10
// outcome grid, chi-square against uniform.
func TestRouterIndependenceAcrossRequests(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical suite skipped with -short")
	}
	eachEncoding(t, func(t *testing.T, encoding string) {
		// 10 keys split 4/4/2 across three partitions.
		tc := startCluster(t, []float64{0, 4, 8, 10}, false, encoding, server.Config{
			CoalesceWindow: time.Millisecond,
			MaxBatch:       8,
		})
		ctx := context.Background()

		const workers, rounds = 16, 250
		joint := make([]int, 100)
		var mu sync.Mutex
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for r := 0; r < rounds; r++ {
					var a, b []float64
					var errA, errB error
					var pair sync.WaitGroup
					pair.Add(2)
					go func() { defer pair.Done(); a, errA = tc.cl.Sample(ctx, "d", 0, 9, 1) }()
					go func() { defer pair.Done(); b, errB = tc.cl.Sample(ctx, "d", 0, 9, 1) }()
					pair.Wait()
					if errA != nil || errB != nil {
						t.Errorf("pair: %v, %v", errA, errB)
						return
					}
					mu.Lock()
					joint[int(a[0])*10+int(b[0])]++
					mu.Unlock()
				}
			}()
		}
		wg.Wait()

		probs := make([]float64, 100)
		for i := range probs {
			probs[i] = 0.01
		}
		gof, err := stats.ChiSquareTest(joint, probs, statAlpha)
		if err != nil {
			t.Fatal(err)
		}
		if gof.Reject {
			t.Fatalf("chi-square rejects cross-request independence through the router: stat=%.2f df=%d critical=%.2f",
				gof.Stat, gof.DF, gof.Critical)
		}
	})
}

// newFixedNode builds one node with a deterministic dataset and sampling
// seed for the equivalence test.
func newFixedNode(t *testing.T) (*server.Server, *httptest.Server) {
	t.Helper()
	s := server.New(server.Config{Flushers: 1})
	keys := make([]float64, 1000)
	for i := range keys {
		keys[i] = float64(i)
	}
	u, err := irs.NewConcurrentFromSortedSeeded(keys, 4, 42)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddUnweighted("d", u); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	return s, ts
}

// TestRouterSinglePartitionEquivalence: a router whose map holds one
// partition must be bit-transparent — the request is forwarded verbatim,
// so against two identically-seeded nodes, a sequence of samples through
// the router equals the same sequence asked directly, float for float.
func TestRouterSinglePartitionEquivalence(t *testing.T) {
	eachEncoding(t, func(t *testing.T, encoding string) {
		sA, tsA := newFixedNode(t)
		defer func() { tsA.Close(); sA.Close() }()
		sB, tsB := newFixedNode(t)
		defer func() { tsB.Close(); sB.Close() }()

		direct, err := client.Dial(tsA.URL, encoding)
		if err != nil {
			t.Fatal(err)
		}
		m, err := cluster.New([]cluster.Partition{{Addr: tsB.URL, Lo: 0, Hi: 1000}})
		if err != nil {
			t.Fatal(err)
		}
		connB, err := client.Dial(tsB.URL, encoding)
		if err != nil {
			t.Fatal(err)
		}
		router, err := cluster.NewRouter(m, []client.Conn{connB}, cluster.Options{Datasets: []string{"d"}, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		proxy := httptest.NewServer(server.NewProxy(router))
		defer proxy.Close()
		routed, err := client.Dial(proxy.URL, encoding)
		if err != nil {
			t.Fatal(err)
		}

		ctx := context.Background()
		queries := []struct {
			lo, hi float64
			t      int
		}{
			{0, 999, 5}, {100, 250, 3}, {500, 500, 1}, {0, 999, 64}, {7, 8, 2}, {900, 999, 10},
		}
		for round := 0; round < 5; round++ {
			for _, q := range queries {
				want, err := direct.Sample(ctx, "d", q.lo, q.hi, q.t)
				if err != nil {
					t.Fatalf("direct sample(%v,%v,%d): %v", q.lo, q.hi, q.t, err)
				}
				got, err := routed.Sample(ctx, "d", q.lo, q.hi, q.t)
				if err != nil {
					t.Fatalf("routed sample(%v,%v,%d): %v", q.lo, q.hi, q.t, err)
				}
				if len(got) != len(want) {
					t.Fatalf("sample(%v,%v,%d): %d samples direct, %d through router", q.lo, q.hi, q.t, len(want), len(got))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("sample(%v,%v,%d)[%d]: direct %v, routed %v — router is not bit-transparent over one partition",
							q.lo, q.hi, q.t, i, want[i], got[i])
					}
				}
			}
		}
	})
}

// sampleCh is the smallest async Reply: it hands the answer to a channel.
type sampleCh chan sampleAnswer

type sampleAnswer struct {
	v   []float64
	err error
}

func (c sampleCh) Deliver(v []float64, err error) { c <- sampleAnswer{v, err} }

// TestRouterBlockingAsyncIdenticalSamples: Router.SampleAppend is
// SampleAppendAsync plus a wait, so two identically seeded deployments —
// one asked through each form — answer the same request sequence with the
// same samples, bit for bit, on the single-partition forwarding path and
// on the three-partition one-round split path alike.
func TestRouterBlockingAsyncIdenticalSamples(t *testing.T) {
	for _, bounds := range [][]float64{{0, 300}, {0, 100, 200, 300}} {
		cfg := server.Config{Flushers: 1} // one RNG stream per node
		blocking := startCluster(t, bounds, false, client.EncodingBinary, cfg).router
		async := startCluster(t, bounds, false, client.EncodingBinary, cfg).router
		done := make(sampleCh, 1)
		for i := 0; i < 40; i++ {
			lo, hi, n := float64(i*7%150), float64(150+i*11%150), 1+i%23
			want, err := blocking.SampleAppend("d", nil, lo, hi, n)
			if err != nil {
				t.Fatal(err)
			}
			if err := async.SampleAppendAsync("d", nil, lo, hi, n, nil, done); err != nil {
				t.Fatal(err)
			}
			got := <-done
			if got.err != nil || !slices.Equal(got.v, want) {
				t.Fatalf("%d partitions, request %d: async %v (%v), blocking %v", len(bounds)-1, i, got.v, got.err, want)
			}
		}
	}
}

// TestRouterCrossPartitionMutations: inserts, deletes, and updates route
// by key range and land on the right nodes, observable through the
// router's own aggregated RangeStats.
func TestRouterCrossPartitionMutations(t *testing.T) {
	tc := startCluster(t, []float64{0, 100, 200, 300}, true, client.EncodingJSON, server.Config{})
	ctx := context.Background()

	// One new key per partition.
	ins, err := tc.cl.InsertItems(ctx, "d", []server.Item{
		{Key: 50.5, Weight: 2}, {Key: 150.5, Weight: 2}, {Key: 250.5, Weight: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if ins != 3 {
		t.Fatalf("inserted %d, want 3", ins)
	}
	for i, ts := range tc.nodeTS {
		nc, err := client.Dial(ts.URL, client.EncodingJSON)
		if err != nil {
			t.Fatal(err)
		}
		key := float64(i*100) + 50.5
		n, _, err := nc.RangeStats(ctx, "d", key, key)
		if err != nil {
			t.Fatal(err)
		}
		if n != 1 {
			t.Errorf("node %d holds %d copies of key %v, want exactly its own 1", i, n, key)
		}
	}

	// Cross-partition count through the router.
	n, mass, err := tc.cl.RangeStats(ctx, "d", 0, 299)
	if err != nil {
		t.Fatal(err)
	}
	if n != 303 {
		t.Fatalf("router RangeStats count = %d, want 303", n)
	}
	if mass <= 0 {
		t.Fatalf("router RangeStats mass = %v", mass)
	}

	// Update each inserted key's weight through the router; delete one.
	up, err := tc.cl.Update(ctx, "d", []server.Item{
		{Key: 50.5, Weight: 9}, {Key: 150.5, Weight: 9}, {Key: 250.5, Weight: 9},
	})
	if err != nil {
		t.Fatal(err)
	}
	if up != 3 {
		t.Fatalf("updated %d, want 3", up)
	}
	del, err := tc.cl.Delete(ctx, "d", []float64{150.5, 4242 /* outside coverage: no-op */})
	if err != nil {
		t.Fatal(err)
	}
	if del != 1 {
		t.Fatalf("deleted %d, want 1", del)
	}
}

// TestRouterNodeDown: with one node gone, requests touching its partition
// answer a typed unavailable error — transport-invariantly via errors.Is —
// while requests confined to live partitions keep being served.
func TestRouterNodeDown(t *testing.T) {
	eachEncoding(t, func(t *testing.T, encoding string) {
		tc := startCluster(t, []float64{0, 100, 200, 300}, false, encoding, server.Config{})
		ctx := context.Background()

		tc.nodeTS[1].Close() // kill the middle node's listener

		// A spanning sample fails whole, typed.
		if _, err := tc.cl.Sample(ctx, "d", 0, 299, 10); !errors.Is(err, server.ErrUnavailable) {
			t.Fatalf("spanning sample with node down: got %v, want ErrUnavailable", err)
		}
		// So does one confined to the dead partition.
		if _, err := tc.cl.Sample(ctx, "d", 110, 190, 5); !errors.Is(err, server.ErrUnavailable) {
			t.Fatalf("dead-partition sample: got %v, want ErrUnavailable", err)
		}
		// Live partitions keep serving.
		out, err := tc.cl.Sample(ctx, "d", 0, 99, 5)
		if err != nil {
			t.Fatalf("live-partition sample: %v", err)
		}
		if len(out) != 5 {
			t.Fatalf("live-partition sample returned %d, want 5", len(out))
		}
		out, err = tc.cl.Sample(ctx, "d", 200, 299, 5)
		if err != nil {
			t.Fatalf("other live partition: %v", err)
		}
		for _, k := range out {
			if k < 200 || k > 299 {
				t.Fatalf("sample %v outside requested range", k)
			}
		}
	})
}

// TestRouterPartialMutationFailure: a mutation batch spanning a dead
// partition applies everywhere else and reports both the applied count
// and a typed unavailable error — the live partitions' results are not
// lost. Asserted at the Router layer, where the (count, error) pair is
// visible together.
func TestRouterPartialMutationFailure(t *testing.T) {
	tc := startCluster(t, []float64{0, 100, 200, 300}, false, client.EncodingJSON, server.Config{})
	ctx := context.Background()

	tc.nodeTS[1].Close()

	var wait srv.Blocking[int]
	applied, err := wait.Do(func(done server.InsertReply) error {
		return tc.router.InsertAsync("d", []server.Item{
			{Key: 60.5, Weight: 1}, {Key: 160.5, Weight: 1}, {Key: 260.5, Weight: 1},
		}, done)
	})
	if !errors.Is(err, server.ErrUnavailable) {
		t.Fatalf("partial insert: got err %v, want ErrUnavailable", err)
	}
	if applied != 2 {
		t.Fatalf("partial insert applied %d, want 2 (live partitions must not lose their sub-results)", applied)
	}
	// The live nodes really hold their keys.
	for _, i := range []int{0, 2} {
		nc, err := client.Dial(tc.nodeTS[i].URL, client.EncodingJSON)
		if err != nil {
			t.Fatal(err)
		}
		key := float64(i*100) + 60.5
		n, _, err := nc.RangeStats(ctx, "d", key, key)
		if err != nil {
			t.Fatal(err)
		}
		if n != 1 {
			t.Errorf("node %d: inserted key %v not present after partial failure", i, key)
		}
	}
}

// TestRouterStatsAndMetrics: the aggregated stats view sums node figures
// and the metrics exposition carries per-partition request counters.
func TestRouterStatsAndMetrics(t *testing.T) {
	tc := startCluster(t, []float64{0, 100, 200, 300}, false, client.EncodingJSON, server.Config{})
	ctx := context.Background()

	if _, err := tc.cl.Sample(ctx, "d", 0, 299, 30); err != nil {
		t.Fatal(err)
	}
	st, err := tc.cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Datasets) != 1 || st.Datasets[0].Name != "d" {
		t.Fatalf("stats datasets = %+v", st.Datasets)
	}
	d := st.Datasets[0]
	if d.Len != 300 {
		t.Fatalf("aggregated len = %d, want 300", d.Len)
	}
	if min, ok := d.MinKey.(float64); !ok || min != 0 {
		t.Fatalf("aggregated min key = %v", d.MinKey)
	}
	if max, ok := d.MaxKey.(float64); !ok || max != 299 {
		t.Fatalf("aggregated max key = %v", d.MaxKey)
	}

	exp := string(tc.router.AppendMetrics(nil))
	for _, want := range []string{
		"irsd_cluster_partitions 3",
		`irsd_cluster_partition_requests_total{partition="0"`,
		`irsd_cluster_partition_requests_total{partition="2"`,
		`irsd_cluster_partition_keys{partition="1"`,
	} {
		if !strings.Contains(exp, want) {
			t.Errorf("metrics exposition missing %q", want)
		}
	}
	// The spanning sample probed and sampled: every partition saw requests.
	for i := 0; i < 3; i++ {
		c, _, _ := tc.router.Map().Cached(i)
		if c != 100 {
			t.Errorf("cached count for partition %d = %d, want 100 (Stats must refresh the map)", i, c)
		}
	}
}

// TestRouterErrorVocabulary: single-node serving errors traverse the
// router untouched, and router-level validation mirrors a node's.
func TestRouterErrorVocabulary(t *testing.T) {
	tc := startCluster(t, []float64{0, 100, 200, 300}, false, client.EncodingJSON, server.Config{})
	ctx := context.Background()

	if _, err := tc.cl.Sample(ctx, "nope", 0, 9, 1); !errors.Is(err, server.ErrUnknownDataset) {
		t.Errorf("unknown dataset: %v", err)
	}
	if _, err := tc.cl.Sample(ctx, "d", 9, 0, 1); !errors.Is(err, server.ErrInvalidRange) {
		t.Errorf("inverted range: %v", err)
	}
	if _, err := tc.cl.Sample(ctx, "d", 400, 500, 1); !errors.Is(err, server.ErrEmptyRange) {
		t.Errorf("outside coverage: %v", err)
	}
	if _, err := tc.cl.Sample(ctx, "d", 50.2, 50.4, 1); !errors.Is(err, server.ErrEmptyRange) {
		t.Errorf("empty sliver: %v", err)
	}
	if _, err := tc.cl.Update(ctx, "d", []server.Item{{Key: 1, Weight: 2}}); !errors.Is(err, server.ErrNotWeighted) {
		t.Errorf("update on unweighted: %v", err)
	}
	if _, err := tc.router.Snapshot("d"); !errors.Is(err, server.ErrNotDurable) {
		t.Errorf("snapshot through router: want ErrNotDurable")
	}
	if _, err := tc.cl.InsertItems(ctx, "d", []server.Item{{Key: 1e9, Weight: 1}}); !errors.Is(err, server.ErrInvalidRange) {
		t.Errorf("insert outside coverage: %v", err)
	}
}

// TestRouterLargeTChiSquare: with t = 4000 over three partitions every
// node's share of the draws exceeds the one-round prefetch, so each leg is
// completed by a top-up call; per-sample uniformity and
// weight-proportionality must survive the prefix-plus-top-up blocks, over
// every encoding.
func TestRouterLargeTChiSquare(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical suite skipped with -short")
	}
	everyEncoding(t, func(t *testing.T, encoding string) {
		const clients, reqs, tPer = 4, 8, 4000
		t.Run("uniform", func(t *testing.T) {
			tc := startCluster(t, []float64{0, 100, 200, 300}, false, encoding, server.Config{})
			counts := sampleCounts(t, tc, 300, clients, reqs, tPer, 0, 299)
			stat, df, err := stats.ChiSquareUniform(counts)
			if err != nil {
				t.Fatal(err)
			}
			if crit := stats.ChiSquareCritical(df, statAlpha); stat > crit {
				t.Fatalf("chi-square rejects uniformity at t=%d: stat=%.2f df=%d critical=%.2f", tPer, stat, df, crit)
			}
		})
		t.Run("weighted", func(t *testing.T) {
			tc := startCluster(t, []float64{0, 100, 200, 300}, true, encoding, server.Config{})
			counts := sampleCounts(t, tc, 300, clients, reqs, tPer, 0, 299)
			gof, err := stats.ChiSquareTest(counts, weightProbs(300), statAlpha)
			if err != nil {
				t.Fatal(err)
			}
			if gof.Reject {
				t.Fatalf("chi-square rejects weight-proportionality at t=%d: stat=%.2f df=%d critical=%.2f",
					tPer, gof.Stat, gof.DF, gof.Critical)
			}
		})
	})
}

// TestRouterLargeTIndependence: at t = 4000 over 9 keys split 3/3/3, every
// leg's block is its one-round prefix plus a top-up, and the outputs must
// still be mutually independent — position j of two concurrent requests,
// and consecutive positions j, j+1 within one request. Joint distributions
// over the 9x9 grid, chi-square against uniform, over every encoding.
func TestRouterLargeTIndependence(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical suite skipped with -short")
	}
	everyEncoding(t, func(t *testing.T, encoding string) {
		tc := startCluster(t, []float64{0, 3, 6, 9}, false, encoding, server.Config{})
		ctx := context.Background()
		const pairs, tPer = 6, 4000
		across, within := make([]int, 81), make([]int, 81)
		for p := 0; p < pairs; p++ {
			var a, b []float64
			var errA, errB error
			var wg sync.WaitGroup
			wg.Add(2)
			go func() { defer wg.Done(); a, errA = tc.cl.Sample(ctx, "d", 0, 8, tPer) }()
			go func() { defer wg.Done(); b, errB = tc.cl.Sample(ctx, "d", 0, 8, tPer) }()
			wg.Wait()
			if errA != nil || errB != nil {
				t.Fatalf("pair: %v, %v", errA, errB)
			}
			for j := range a {
				across[int(a[j])*9+int(b[j])]++
				if j+1 < len(a) {
					within[int(a[j])*9+int(a[j+1])]++
				}
			}
		}
		probs := make([]float64, 81)
		for i := range probs {
			probs[i] = 1.0 / 81
		}
		for name, joint := range map[string][]int{"across requests": across, "within a request": within} {
			gof, err := stats.ChiSquareTest(joint, probs, statAlpha)
			if err != nil {
				t.Fatal(err)
			}
			if gof.Reject {
				t.Errorf("chi-square rejects independence %s at t=%d: stat=%.2f df=%d critical=%.2f",
					name, tPer, gof.Stat, gof.DF, gof.Critical)
			}
		}
	})
}

// TestRouterSampleStatsMatchesRangeStats: a sample-with-stats request sent
// through the proxy reports the same cluster-wide (count, mass) as
// Router.RangeStats — spanning, single-partition, outside the map and over
// an empty sliver, where it answers no samples instead of an error.
func TestRouterSampleStatsMatchesRangeStats(t *testing.T) {
	everyEncoding(t, func(t *testing.T, encoding string) {
		tc := startCluster(t, []float64{0, 100, 200, 300}, true, encoding, server.Config{})
		ctx := context.Background()
		for _, q := range []struct {
			lo, hi float64
			t      int
		}{
			{0, 299, 50}, {50, 250, 3000}, {120, 180, 7}, {400, 500, 5}, {50.2, 50.4, 3}, {99.5, 100.5, 4},
		} {
			out, n, mass, err := tc.cl.SampleStatsAppend(ctx, "d", nil, q.lo, q.hi, q.t)
			if err != nil {
				t.Fatalf("[%v, %v]: %v", q.lo, q.hi, err)
			}
			wantN, wantMass, err := tc.router.RangeStats("d", q.lo, q.hi)
			if err != nil {
				t.Fatal(err)
			}
			if n != wantN || mass != wantMass {
				t.Errorf("[%v, %v]: sample-with-stats (%d, %v), RangeStats (%d, %v)", q.lo, q.hi, n, mass, wantN, wantMass)
			}
			if want := map[bool]int{true: q.t, false: 0}[mass > 0]; len(out) != want {
				t.Errorf("[%v, %v]: %d samples, want %d", q.lo, q.hi, len(out), want)
			}
			for _, k := range out {
				if k < q.lo || k > q.hi {
					t.Fatalf("[%v, %v]: sample %v outside the range", q.lo, q.hi, k)
				}
			}
		}
	})
}

// countingConn counts the calls a node connection receives, by kind.
type countingConn struct {
	client.Conn
	samples, statsSamples, probes atomic.Int64
}

func (c *countingConn) SampleAppend(ctx context.Context, name string, dst []float64, lo, hi float64, t int) ([]float64, error) {
	c.samples.Add(1)
	return c.Conn.SampleAppend(ctx, name, dst, lo, hi, t)
}

func (c *countingConn) SampleStatsAppend(ctx context.Context, name string, dst []float64, lo, hi float64, t int) ([]float64, int, float64, error) {
	c.statsSamples.Add(1)
	return c.Conn.SampleStatsAppend(ctx, name, dst, lo, hi, t)
}

func (c *countingConn) RangeStats(ctx context.Context, name string, lo, hi float64) (int, float64, error) {
	c.probes.Add(1)
	return c.Conn.RangeStats(ctx, name, lo, hi)
}

func (c *countingConn) calls() int64 {
	return c.samples.Load() + c.statsSamples.Load() + c.probes.Load()
}

// partitionRequests reads partition i's irsd_cluster_partition_requests_total.
func partitionRequests(t *testing.T, r *cluster.Router, i int) int64 {
	t.Helper()
	prefix := fmt.Sprintf("irsd_cluster_partition_requests_total{partition=%q", strconv.Itoa(i))
	for _, line := range strings.Split(string(r.AppendMetrics(nil)), "\n") {
		if strings.HasPrefix(line, prefix) {
			v, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
			if err != nil {
				t.Fatal(err)
			}
			return int64(v)
		}
	}
	t.Fatalf("no %s series in the exposition", prefix)
	return 0
}

// TestSpanningSampleCallsPerNode pins the call pattern of a spanning
// sample: with t at most the prefetch it is one sample-with-stats call per
// overlapping node — no range probe, nothing for the others — and above
// it at most one top-up per node on top; every call is counted in
// irsd_cluster_partition_requests_total.
func TestSpanningSampleCallsPerNode(t *testing.T) {
	m, err := cluster.New([]cluster.Partition{
		{Addr: "a", Lo: 0, Hi: 1000}, {Addr: "b", Lo: 1000, Hi: 2000}, {Addr: "c", Lo: 2000, Hi: 3000},
	})
	if err != nil {
		t.Fatal(err)
	}
	counted := make([]*countingConn, m.Len())
	conns := make([]client.Conn, m.Len())
	for i := range conns {
		p := m.At(i)
		counted[i] = &countingConn{Conn: &memConn{lo: p.Lo, hi: p.Hi, rng: irs.NewRNG(uint64(i))}}
		conns[i] = counted[i]
	}
	router, err := cluster.NewRouter(m, conns, cluster.Options{Datasets: []string{"d"}, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()

	for _, q := range []struct {
		name    string
		lo, hi  float64
		t       int
		overlap []bool
		topUp   bool // every overlapping node's share exceeds the prefetch
	}{
		{"t=1 over three partitions", 500, 2500, 1, []bool{true, true, true}, false},
		{"t=64 over three partitions", 500, 2500, 64, []bool{true, true, true}, false},
		{"t=256 over two partitions", 1500, 2999, 256, []bool{false, true, true}, false},
		{"t=4000 over three partitions", 0, 2999, 4000, []bool{true, true, true}, true},
	} {
		t.Run(q.name, func(t *testing.T) {
			calls, counter := make([]int64, len(counted)), make([]int64, len(counted))
			for i, c := range counted {
				calls[i], counter[i] = c.calls(), partitionRequests(t, router, i)
			}
			out, err := router.SampleAppend("d", nil, q.lo, q.hi, q.t)
			if err != nil || len(out) != q.t {
				t.Fatalf("%d samples, err %v", len(out), err)
			}
			for i, c := range counted {
				made := c.calls() - calls[i]
				if got := partitionRequests(t, router, i) - counter[i]; got != made {
					t.Errorf("partition %d: %d node calls, %d counted", i, made, got)
				}
				if n := c.probes.Load(); n != 0 {
					t.Errorf("partition %d: %d range probes, want none", i, n)
				}
				want := int64(0)
				if q.overlap[i] {
					want = 1
					if q.topUp {
						want = 2
					}
				}
				if made != want {
					t.Errorf("partition %d: %d node calls, want %d", i, made, want)
				}
			}
		})
	}
}
