package cluster_test

import (
	"context"
	"errors"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	irs "github.com/irsgo/irs"
	"github.com/irsgo/irs/client"
	"github.com/irsgo/irs/internal/cluster"
	"github.com/irsgo/irs/internal/stats"
	"github.com/irsgo/irs/server"
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
// the whole stack with the given client encoding on both hops.
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
		conn, err := client.Dial(ts.URL, encoding)
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
	tc.proxy = httptest.NewServer(server.NewProxy(tc.router))
	tc.cl, err = client.Dial(tc.proxy.URL, encoding)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tc.stop)
	return tc
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

// TestRouterUniformityChiSquare: per-sample uniformity must survive the
// cluster split — probe, multinomial over partition masses, sub-sample,
// scatter — across three partitions, not just within one node. 300 keys
// over 3 nodes, 30k samples from concurrent clients, chi-square against
// uniform, over both encodings.
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
// on the three-partition probe/split/sub-sample path alike.
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
			if err := async.SampleAppendAsync("d", nil, lo, hi, n, done); err != nil {
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

	applied, err := tc.router.Insert("d", []server.Item{
		{Key: 60.5, Weight: 1}, {Key: 160.5, Weight: 1}, {Key: 260.5, Weight: 1},
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
