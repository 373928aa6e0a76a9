package server

import (
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/irsgo/irs/internal/shard"
	"github.com/irsgo/irs/internal/xrand"
)

// stubDataset is an instrumented Dataset[int] for deterministic coalescer
// tests: it records the size of every backend call, optionally blocks
// backend calls on a gate, and answers query (lo, hi, t) with lo repeated
// t times so scatter bugs are visible per request.
type stubDataset struct {
	mu          sync.Mutex
	sampleCalls []int // coalesced request count per SampleManyStatsAppend call
	insertCalls []int // item count per InsertItems call
	stored      int

	sampleGate chan struct{} // non-nil: SampleManyStatsAppend receives before answering
	insertGate chan struct{} // non-nil: InsertItems receives before answering
}

func (d *stubDataset) SampleManyStatsAppend(dst []int, starts []int, queries []shard.Query[int], stats []shard.QueryStats, rng *xrand.RNG) ([]int, []int, error) {
	d.mu.Lock()
	d.sampleCalls = append(d.sampleCalls, len(queries))
	gate := d.sampleGate
	d.mu.Unlock()
	if gate != nil {
		<-gate
	}
	starts = append(starts, len(dst))
	for _, q := range queries {
		for j := 0; j < q.T; j++ {
			dst = append(dst, q.Lo)
		}
		starts = append(starts, len(dst))
	}
	return dst, starts, nil
}

func (d *stubDataset) InsertItems(items []Item[int]) error {
	d.mu.Lock()
	d.insertCalls = append(d.insertCalls, len(items))
	d.stored += len(items)
	gate := d.insertGate
	d.mu.Unlock()
	if gate != nil {
		<-gate
	}
	return nil
}

func (d *stubDataset) DeleteKeys(keys []int) int { return len(keys) }

func (d *stubDataset) RangeStats(lo, hi int) (int, float64) {
	n := d.Len()
	return n, float64(n)
}

func (d *stubDataset) KeyBounds() (int, int, bool) { return 0, 0, false }

func (d *stubDataset) UpdateWeights(items []Item[int]) int { return len(items) }

func (d *stubDataset) ExportItems(dst []Item[int]) []Item[int] { return dst }
func (d *stubDataset) Len() int                                { d.mu.Lock(); defer d.mu.Unlock(); return d.stored }
func (d *stubDataset) Stats() shard.Stats                      { return shard.Stats{Len: d.Len(), Shards: 1} }
func (d *stubDataset) Weighted() bool                          { return false }
func (d *stubDataset) NewStream() *xrand.RNG                   { return xrand.New(1) }

func (d *stubDataset) calls() (samples, inserts []int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]int(nil), d.sampleCalls...), append([]int(nil), d.insertCalls...)
}

// waitFor polls cond for up to ~2s. The deterministic tests never guess at
// timing: they block the backend on a gate, which parks every flusher at a
// known point, and then poll exact state — the recorded backend calls and
// the queue length, which nothing but a flusher can shrink.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for i := 0; i < 2000; i++ {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// wantBatches is the exact backend call sequence when one flusher is
// released with queued requests waiting behind the one it holds: that
// request alone, then the queue in maxBatch-sized pulls.
func wantBatches(queued, maxBatch int) []int {
	want := []int{1}
	for ; queued > 0; queued -= min(queued, maxBatch) {
		want = append(want, min(queued, maxBatch))
	}
	return want
}

// TestCoalescingStrictlyFewerBackendCalls is the deterministic form of the
// coalescing claim, and of late batch formation: with the one flusher
// blocked inside the backend on request A and the other n-1 requests
// queued, releasing the backend must produce exactly 1 + ⌈(n-1)/MaxBatch⌉
// calls — A alone, then the whole backlog in full pulls. Nothing freezes a
// batch early, so with room in MaxBatch that is one call of n-1.
func TestCoalescingStrictlyFewerBackendCalls(t *testing.T) {
	const n = 16
	for _, maxBatch := range []int{64, 15, 4} {
		ds := &stubDataset{sampleGate: make(chan struct{})}
		core := NewCore[int](Config{QueueDepth: 64, MaxBatch: maxBatch, Flushers: 1})
		if err := core.Add("d", ds); err != nil {
			t.Fatal(err)
		}
		st := core.byName["d"]

		type res struct {
			keys []int
			err  error
		}
		results := make(chan res, n)
		submit := func(lo int) {
			keys, err := core.Sample("d", lo, lo+10, 3)
			results <- res{keys, err}
		}

		go submit(0) // A: taken by the flusher, blocked on the gate
		waitFor(t, "first backend call", func() bool { s, _ := ds.calls(); return len(s) == 1 })
		for i := 1; i < n; i++ {
			go submit(i)
		}
		waitFor(t, "the rest queued", func() bool { return st.samples.depth() == n-1 })

		close(ds.sampleGate)
		for i := 0; i < n; i++ {
			r := <-results
			if r.err != nil {
				t.Fatalf("request failed: %v", r.err)
			}
			if len(r.keys) != 3 {
				t.Fatalf("got %d samples", len(r.keys))
			}
			// Scatter check: every sample of a request must come from its own
			// query (the stub answers lo repeated t times).
			for _, k := range r.keys[1:] {
				if k != r.keys[0] {
					t.Fatalf("mixed results across coalesced requests: %v", r.keys)
				}
			}
		}

		samples, _ := ds.calls()
		want := wantBatches(n-1, maxBatch)
		if !slices.Equal(samples, want) {
			t.Fatalf("MaxBatch %d: backend calls = %v, want %v", maxBatch, samples, want)
		}
		s := core.Stats().Datasets[0]
		if s.SampleRequests != n || s.SampleBatches != uint64(len(want)) ||
			s.MaxCoalesced != uint64(slices.Max(want)) || s.SamplesReturned != n*3 {
			t.Fatalf("MaxBatch %d: stats: %+v", maxBatch, s)
		}
		core.Close()
	}
}

// TestInsertCoalescing mirrors the sample test on the mutation path: the
// requests queued behind a blocked insert merge into one InsertItems call
// per MaxBatch requests, and each is acknowledged with its own item count.
func TestInsertCoalescing(t *testing.T) {
	const n = 10
	for _, maxBatch := range []int{64, 4} {
		ds := &stubDataset{insertGate: make(chan struct{})}
		core := NewCore[int](Config{QueueDepth: 64, MaxBatch: maxBatch, Flushers: 1})
		if err := core.Add("d", ds); err != nil {
			t.Fatal(err)
		}
		st := core.byName["d"]

		// Every request carries two items, so a backend call of 2k items is
		// a batch of k requests whatever order the queue took them in.
		results := make(chan int, n)
		errs := make(chan error, n)
		submit := func() {
			got, err := core.Insert("d", make([]Item[int], 2))
			results <- got
			errs <- err
		}

		go submit() // blocked in the backend
		waitFor(t, "first insert call", func() bool { _, ins := ds.calls(); return len(ins) == 1 })
		for i := 1; i < n; i++ {
			go submit()
		}
		waitFor(t, "the rest queued", func() bool { return st.inserts.depth() == n-1 })

		close(ds.insertGate)
		for i := 0; i < n; i++ {
			if err := <-errs; err != nil {
				t.Fatalf("insert failed: %v", err)
			}
			if got := <-results; got != 2 {
				t.Fatalf("request acknowledged %d items, want its own 2", got)
			}
		}
		_, inserts := ds.calls()
		want := wantBatches(n-1, maxBatch)
		for i := range want {
			want[i] *= 2
		}
		if !slices.Equal(inserts, want) {
			t.Fatalf("MaxBatch %d: backend item batches = %v, want %v", maxBatch, inserts, want)
		}
		s := core.Stats().Datasets[0]
		if s.InsertRequests != n || s.InsertBatches != uint64(len(want)) || s.ItemsInserted != 2*n {
			t.Fatalf("MaxBatch %d: stats: %+v", maxBatch, s)
		}
		core.Close()
	}
}

// TestQueueFullBackpressure pins the exact admission bound: with every
// flusher blocked in the backend holding one request, exactly QueueDepth
// more are accepted, and the submission after that — outstanding request
// number QueueDepth + Flushers + 1 — fails fast with ErrOverloaded while
// every accepted request is served.
func TestQueueFullBackpressure(t *testing.T) {
	const depth, flushers = 3, 2
	ds := &stubDataset{sampleGate: make(chan struct{})}
	core := NewCore[int](Config{QueueDepth: depth, MaxBatch: 1, Flushers: flushers})
	if err := core.Add("d", ds); err != nil {
		t.Fatal(err)
	}
	defer core.Close()
	st := core.byName["d"]

	errs := make(chan error, depth+flushers)
	submit := func() { _, err := core.Sample("d", 0, 10, 1); errs <- err }

	for i := 0; i < flushers; i++ {
		go submit() // each absorbed by a flusher, blocked on the gate
	}
	waitFor(t, "every flusher in the backend", func() bool { s, _ := ds.calls(); return len(s) == flushers })
	for i := 1; i <= depth; i++ {
		go submit() // queued: no flusher is free to take it
		waitFor(t, "queue to grow", func() bool { return st.samples.depth() == i })
	}

	// QueueDepth + Flushers requests are outstanding: the next is rejected.
	if _, err := core.Sample("d", 0, 10, 1); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}

	close(ds.sampleGate)
	for i := 0; i < depth+flushers; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("accepted request failed: %v", err)
		}
	}
	s := core.Stats().Datasets[0]
	if s.SampleRequests != depth+flushers+1 || s.SampleRejected != 1 {
		t.Fatalf("stats: %+v", s)
	}
}

// TestLoneRequestCoalescesWithoutTimer: on an idle zero-value coalescer a
// lone request reaches the backend at once, as a batch of one, on both
// paths — and no linger timer is ever constructed, so none can be reset or
// waited on. The windowed run shows the counter is live: there each
// flusher builds exactly one timer and reuses it.
func TestLoneRequestCoalescesWithoutTimer(t *testing.T) {
	var built atomic.Int32
	orig := newTimer
	newTimer = func(d time.Duration) *time.Timer { built.Add(1); return orig(d) }
	defer func() { newTimer = orig }()
	run := func(cfg Config) {
		ds := &stubDataset{}
		core := NewCore[int](cfg)
		if err := core.Add("d", ds); err != nil {
			t.Fatal(err)
		}
		for i := 1; i <= 5; i++ {
			if keys, err := core.Sample("d", i, i+10, 2); err != nil || len(keys) != 2 {
				t.Fatalf("sample: %v, %v", keys, err)
			}
			if n, err := core.Insert("d", make([]Item[int], 3)); err != nil || n != 3 {
				t.Fatalf("insert: %d, %v", n, err)
			}
			samples, inserts := ds.calls()
			if len(samples) != i || samples[i-1] != 1 || len(inserts) != i || inserts[i-1] != 3 {
				t.Fatalf("lone requests not flushed alone: sample calls %v, insert calls %v", samples, inserts)
			}
		}
		core.Close()
	}

	run(Config{})
	if n := built.Load(); n != 0 {
		t.Fatalf("zero-window path constructed %d timers, want none", n)
	}
	run(Config{Flushers: 1, CoalesceWindow: time.Nanosecond})
	if n := built.Load(); n != 2 {
		t.Fatalf("windowed path constructed %d timers, want one per flusher (2)", n)
	}
}

// onceReply counts deliveries per request, so a drain that answers a
// request twice — or never — is visible as such.
type onceReply struct {
	delivered atomic.Int32
	failed    atomic.Bool
}

func (r *onceReply) Deliver(_ []int, err error) {
	if err != nil {
		r.failed.Store(true)
	}
	r.delivered.Add(1)
}

// TestCloseDrainsQueueExactlyOnce: Close with k flushers blocked in the
// backend and a non-empty queue behind them answers every accepted request
// exactly once — the flushers drain the closed queue between them, no
// request is dropped at the seam and none is flushed by two of them.
func TestCloseDrainsQueueExactlyOnce(t *testing.T) {
	const flushers, queued = 3, 20
	ds := &stubDataset{sampleGate: make(chan struct{})}
	core := NewCore[int](Config{QueueDepth: 64, MaxBatch: 4, Flushers: flushers})
	if err := core.Add("d", ds); err != nil {
		t.Fatal(err)
	}
	st := core.byName["d"]

	replies := make([]onceReply, flushers+queued)
	submit := func(i int) {
		if err := core.SampleAppendAsync("d", nil, i, i+10, 2, nil, &replies[i]); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	for i := 0; i < flushers; i++ {
		submit(i)
		// One at a time, so each lands on its own flusher instead of two
		// sharing a batch.
		waitFor(t, "a flusher to block on it", func() bool { s, _ := ds.calls(); return len(s) == i+1 })
	}
	for i := flushers; i < len(replies); i++ {
		submit(i)
	}
	if d := st.samples.depth(); d != queued {
		t.Fatalf("queue depth = %d, want %d", d, queued)
	}

	closed := make(chan struct{})
	go func() { core.Close(); close(closed) }()
	waitFor(t, "shutdown flag", func() bool {
		core.mu.RLock()
		defer core.mu.RUnlock()
		return core.closed
	})
	select {
	case <-closed:
		t.Fatal("Close returned with accepted requests unanswered")
	default:
	}

	close(ds.sampleGate)
	<-closed
	for i := range replies {
		if n := replies[i].delivered.Load(); n != 1 {
			t.Fatalf("request %d answered %d times, want exactly once", i, n)
		}
		if replies[i].failed.Load() {
			t.Fatalf("request %d drained with an error", i)
		}
	}
	samples, _ := ds.calls()
	sum := 0
	for _, b := range samples {
		sum += b
	}
	if sum != len(replies) {
		t.Fatalf("backend saw %d requests in %v, want %d", sum, samples, len(replies))
	}
}

// TestShutdownWhileInflight: requests accepted before Close are answered
// (drain), requests after Close fail with ErrShuttingDown, and nothing
// panics in any interleaving of close with blocked flushes.
func TestShutdownWhileInflight(t *testing.T) {
	// The one flusher holds at most MaxBatch = 4 requests, so 16 guarantees
	// some are still queued when Close begins — shutdown-while-inflight on
	// both sides of the queue.
	const n = 16
	ds := &stubDataset{sampleGate: make(chan struct{})}
	core := NewCore[int](Config{QueueDepth: 64, MaxBatch: 4, Flushers: 1})
	if err := core.Add("d", ds); err != nil {
		t.Fatal(err)
	}
	st := core.byName["d"]

	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() { _, err := core.Sample("d", 0, 10, 2); errs <- err }()
	}
	waitFor(t, "a blocked flush with every other request queued", func() bool {
		s, _ := ds.calls()
		return len(s) == 1 && s[0]+st.samples.depth() == n
	})

	closed := make(chan struct{})
	go func() { core.Close(); close(closed) }()

	// Close must reject new work immediately, even while draining. Wait on
	// the flag itself (probing with Sample could race admission and park a
	// request we never release).
	waitFor(t, "shutdown flag", func() bool {
		core.mu.RLock()
		defer core.mu.RUnlock()
		return core.closed
	})
	if _, err := core.Sample("d", 0, 10, 1); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("sample err = %v, want ErrShuttingDown", err)
	}
	if _, err := core.Insert("d", []Item[int]{{Key: 1}}); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("insert err = %v, want ErrShuttingDown", err)
	}
	if _, err := core.Delete("d", []int{1}); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("delete err = %v, want ErrShuttingDown", err)
	}

	close(ds.sampleGate)
	<-closed
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("request accepted before Close failed: %v", err)
		}
	}
	core.Close() // idempotent
}
