package server_test

import (
	"context"
	"sync"
	"testing"
	"time"

	"github.com/irsgo/irs/client"
	"github.com/irsgo/irs/internal/stats"
	"github.com/irsgo/irs/server"
)

// statAlpha mirrors the repository-wide convention (internal/shard): a
// significance small enough that genuine distributional bias — which moves
// the statistic by orders of magnitude — is still caught, while honest
// sampling noise essentially never rejects.
const statAlpha = 1e-4

// TestHTTPCoalescingFewerBackendCalls is the tentpole claim measured
// through the real HTTP stack: N concurrent client sample requests must
// reach the backend in strictly fewer SampleMany calls than N, with at
// least one genuine merge. (The deterministic pipeline-level form lives in
// internal/server; this is the integration form with a linger window.)
func TestHTTPCoalescingFewerBackendCalls(t *testing.T) {
	_, cl, _, stop := newTestDaemon(t, server.Config{
		CoalesceWindow: 2 * time.Millisecond,
		MaxBatch:       64,
		Flushers:       2,
	}, 1000)
	defer stop()
	ctx := context.Background()

	const n = 64
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if _, err := cl.Sample(ctx, "u", 0, 999, 4); err != nil {
				t.Errorf("sample: %v", err)
			}
		}()
	}
	close(start)
	wg.Wait()

	st, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range st.Datasets {
		if d.Name != "u" {
			continue
		}
		if d.SampleRequests != n {
			t.Fatalf("accounted %d requests, want %d", d.SampleRequests, n)
		}
		if d.SampleBatches >= n {
			t.Fatalf("backend calls = %d for %d requests: no coalescing", d.SampleBatches, n)
		}
		if d.MaxCoalesced < 2 {
			t.Fatalf("no request ever shared a batch: %+v", d)
		}
		t.Logf("%d requests in %d backend calls (%.1fx coalescing, max batch %d)",
			d.SampleRequests, d.SampleBatches,
			float64(d.SampleRequests)/float64(d.SampleBatches), d.MaxCoalesced)
	}
}

// eachEncoding runs the statistical suite body once over the JSON wire
// format and once over the binary frames: the IRS contract — uniformity,
// weight-proportionality, independence — must hold identically over both
// encodings, not just the one the client happens to speak.
func eachEncoding(t *testing.T, run func(t *testing.T, binary bool)) {
	t.Run("json", func(t *testing.T) { run(t, false) })
	t.Run("binary", func(t *testing.T) { run(t, true) })
}

// encodingClient is the JSON client, or the binary-frame client of the
// same daemon.
func encodingClient(cl *server.Client, base string, binary bool) client.Conn {
	if binary {
		return server.NewBinaryClient(base)
	}
	return cl
}

// TestHTTPUniformityChiSquare: per-sample uniformity must survive the full
// stack — wire codec, coalescing into shared SampleMany batches, concurrent
// flushers — not just the in-process sampler. 200 distinct keys, 20k
// samples drawn by 20 concurrent clients, chi-square against uniform, over
// both encodings.
func TestHTTPUniformityChiSquare(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical suite skipped with -short")
	}
	eachEncoding(t, testHTTPUniformityChiSquare)
}

func testHTTPUniformityChiSquare(t *testing.T, binary bool) {
	_, jsonCl, base, stop := newTestDaemon(t, server.Config{
		CoalesceWindow: 500 * time.Microsecond,
	}, 200)
	defer stop()
	cl := encodingClient(jsonCl, base, binary)
	ctx := context.Background()

	const clients, reqs, tPer = 20, 100, 10
	countsCh := make(chan []int, clients)
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			local := make([]int, 200)
			for i := 0; i < reqs; i++ {
				out, err := cl.Sample(ctx, "u", 0, 199, tPer)
				if err != nil {
					t.Errorf("sample: %v", err)
					return
				}
				for _, k := range out {
					idx := int(k)
					if idx < 0 || idx > 199 || float64(idx) != k {
						t.Errorf("impossible sample %g", k)
						return
					}
					local[idx]++
				}
			}
			countsCh <- local
		}()
	}
	wg.Wait()
	close(countsCh)
	counts := make([]int, 200)
	for local := range countsCh {
		for i, c := range local {
			counts[i] += c
		}
	}
	gof, err := stats.ChiSquareTest(counts, uniformProbs(200), statAlpha)
	if err != nil {
		t.Fatal(err)
	}
	if gof.Reject {
		t.Fatalf("chi-square rejects uniformity through HTTP: stat=%.2f df=%d critical=%.2f",
			gof.Stat, gof.DF, gof.Critical)
	}
}

// TestHTTPWeightedProportionalChiSquare: the weighted dataset's samples
// through the full stack must be weight-proportional (weight k+1 on key
// k), and zero-weight keys must never appear — over both encodings.
func TestHTTPWeightedProportionalChiSquare(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical suite skipped with -short")
	}
	eachEncoding(t, testHTTPWeightedProportionalChiSquare)
}

func testHTTPWeightedProportionalChiSquare(t *testing.T, binary bool) {
	_, jsonCl, base, stop := newTestDaemon(t, server.Config{
		CoalesceWindow: 500 * time.Microsecond,
	}, 100)
	defer stop()
	cl := encodingClient(jsonCl, base, binary)
	ctx := context.Background()

	// Add a zero-weight key; it must never be sampled.
	if _, err := cl.InsertItems(ctx, "w", []server.Item{{Key: 7777, Weight: 0}}); err != nil {
		t.Fatal(err)
	}

	const clients, reqs, tPer = 10, 100, 15
	countsCh := make(chan []int, clients)
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			local := make([]int, 100)
			for i := 0; i < reqs; i++ {
				out, err := cl.Sample(ctx, "w", 0, 8000, tPer)
				if err != nil {
					t.Errorf("sample: %v", err)
					return
				}
				for _, k := range out {
					if k == 7777 {
						t.Errorf("sampled zero-weight key")
						return
					}
					local[int(k)]++
				}
			}
			countsCh <- local
		}()
	}
	wg.Wait()
	close(countsCh)
	counts := make([]int, 100)
	for local := range countsCh {
		for i, c := range local {
			counts[i] += c
		}
	}
	probs := make([]float64, 100)
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
		t.Fatalf("chi-square rejects weight-proportionality through HTTP: stat=%.2f df=%d critical=%.2f",
			gof.Stat, gof.DF, gof.Critical)
	}
}

// TestHTTPIndependenceAcrossCoalescedRequests: requests that share a
// coalesced SampleMany batch must stay mutually independent. Pairs of
// simultaneous t=1 requests over 10 keys are drawn with a linger window
// wide enough that paired requests land in one batch; the joint
// distribution over the 10x10 outcome grid must be uniform (chi-square),
// which fails if batch-mates are correlated in any direction. Run over
// both encodings.
func TestHTTPIndependenceAcrossCoalescedRequests(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical suite skipped with -short")
	}
	eachEncoding(t, testHTTPIndependenceAcrossCoalescedRequests)
}

func testHTTPIndependenceAcrossCoalescedRequests(t *testing.T, binary bool) {
	_, jsonCl, base, stop := newTestDaemon(t, server.Config{
		CoalesceWindow: time.Millisecond,
		MaxBatch:       8,
	}, 10)
	defer stop()
	cl := encodingClient(jsonCl, base, binary)
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
				go func() { defer pair.Done(); a, errA = cl.Sample(ctx, "u", 0, 9, 1) }()
				go func() { defer pair.Done(); b, errB = cl.Sample(ctx, "u", 0, 9, 1) }()
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

	gof, err := stats.ChiSquareTest(joint, uniformProbs(100), statAlpha)
	if err != nil {
		t.Fatal(err)
	}
	if gof.Reject {
		t.Fatalf("chi-square rejects cross-request independence: stat=%.2f df=%d critical=%.2f",
			gof.Stat, gof.DF, gof.Critical)
	}
}

func uniformProbs(n int) []float64 {
	p := make([]float64, n)
	for i := range p {
		p[i] = 1 / float64(n)
	}
	return p
}
