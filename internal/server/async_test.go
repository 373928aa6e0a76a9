package server

import (
	"errors"
	"slices"
	"sync"
	"testing"
)

// newWaiter builds the production blocking Reply with room for n
// undelivered answers, so one waiter can collect a burst of submissions.
func newWaiter[R any](n int) *waiter[R] { return &waiter[R]{ch: make(chan result[R], n)} }

// TestAsyncSubmission covers the async contract end to end: accepted
// requests deliver exactly once through Reply, synchronous failures
// (validation, routing, admission) never touch the Reply, and close still
// drains accepted async requests.
func TestAsyncSubmission(t *testing.T) {
	ds := &stubDataset{}
	core := NewCore[int](Config{QueueDepth: 64, MaxBatch: 64, Flushers: 1})
	if err := core.Add("d", ds); err != nil {
		t.Fatal(err)
	}
	defer core.Close()

	sr := newWaiter[[]int](1)
	if err := core.SampleAppendAsync("d", nil, 5, 10, 3, nil, sr); err != nil {
		t.Fatal(err)
	}
	res := <-sr.ch
	if res.err != nil || len(res.v) != 3 || res.v[0] != 5 {
		t.Fatalf("async sample: %v, %v", res.v, res.err)
	}

	// dst must be appended to, not replaced.
	dst := []int{-1}
	if err := core.SampleAppendAsync("d", dst, 7, 9, 2, nil, sr); err != nil {
		t.Fatal(err)
	}
	res = <-sr.ch
	if res.err != nil || len(res.v) != 3 || res.v[0] != -1 || res.v[1] != 7 {
		t.Fatalf("async sample append: %v, %v", res.v, res.err)
	}

	ir := newWaiter[int](1)
	if err := core.InsertAsync("d", []Item[int]{{Key: 1, Weight: 1}, {Key: 2, Weight: 1}}, ir); err != nil {
		t.Fatal(err)
	}
	ires := <-ir.ch
	if ires.err != nil || ires.v != 2 {
		t.Fatalf("async insert: %v, %v", ires.v, ires.err)
	}

	// Empty inserts answer inline, before InsertAsync returns.
	if err := core.InsertAsync("d", nil, ir); err != nil {
		t.Fatal(err)
	}
	select {
	case ires = <-ir.ch:
	default:
		t.Fatal("empty insert not answered inline")
	}
	if ires.err != nil || ires.v != 0 {
		t.Fatalf("empty async insert: %v, %v", ires.v, ires.err)
	}

	// Synchronous failures return the error and never invoke the Reply.
	for _, tc := range []struct {
		name string
		err  error
		call func() error
	}{
		{"invalid count", ErrInvalidCount, func() error { return core.SampleAppendAsync("d", nil, 0, 1, 0, nil, sr) }},
		{"inverted range", ErrInvalidRange, func() error { return core.SampleAppendAsync("d", nil, 2, 1, 1, nil, sr) }},
		{"unknown dataset", ErrUnknownDataset, func() error { return core.SampleAppendAsync("x", nil, 0, 1, 1, nil, sr) }},
		{"unknown insert", ErrUnknownDataset, func() error { return core.InsertAsync("x", []Item[int]{{Key: 1}}, ir) }},
	} {
		if err := tc.call(); !errors.Is(err, tc.err) {
			t.Fatalf("%s: err = %v, want %v", tc.name, err, tc.err)
		}
	}
	select {
	case res := <-sr.ch:
		t.Fatalf("sample reply invoked on synchronous failure: %+v", res)
	case ires := <-ir.ch:
		t.Fatalf("insert reply invoked on synchronous failure: %+v", ires)
	default:
	}
}

// TestAsyncDrainOnClose: async requests accepted before Close are
// delivered (the coalescer drains), and submissions after Close fail
// synchronously with ErrShuttingDown.
func TestAsyncDrainOnClose(t *testing.T) {
	const n = 16
	ds := &stubDataset{sampleGate: make(chan struct{})}
	core := NewCore[int](Config{QueueDepth: 64, MaxBatch: 4, Flushers: 1})
	if err := core.Add("d", ds); err != nil {
		t.Fatal(err)
	}

	sr := newWaiter[[]int](n)
	accepted := 0
	for i := 0; i < n; i++ {
		if err := core.SampleAppendAsync("d", nil, i, i+10, 2, nil, sr); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		accepted++
	}
	waitFor(t, "a blocked flush", func() bool { s, _ := ds.calls(); return len(s) >= 1 })

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); core.Close() }()
	waitFor(t, "shutdown flag", func() bool {
		core.mu.RLock()
		defer core.mu.RUnlock()
		return core.closed
	})
	if err := core.SampleAppendAsync("d", nil, 0, 1, 1, nil, sr); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("post-close submit err = %v, want ErrShuttingDown", err)
	}

	close(ds.sampleGate)
	wg.Wait()
	for i := 0; i < accepted; i++ {
		res := <-sr.ch
		if res.err != nil || len(res.v) != 2 {
			t.Fatalf("drained async request %d: %v, %v", i, res.v, res.err)
		}
	}
}

// TestAsyncOverload: async submissions are accepted up to exactly
// QueueDepth + Flushers outstanding and the next is rejected synchronously
// with ErrOverloaded, without consuming the Reply.
func TestAsyncOverload(t *testing.T) {
	const depth = 2
	ds := &stubDataset{sampleGate: make(chan struct{})}
	core := NewCore[int](Config{QueueDepth: depth, MaxBatch: 1, Flushers: 1})
	if err := core.Add("d", ds); err != nil {
		t.Fatal(err)
	}
	defer core.Close()
	st := core.byName["d"]

	sr := newWaiter[[]int](depth + 1)
	submit := func() error { return core.SampleAppendAsync("d", nil, 0, 10, 1, nil, sr) }
	if err := submit(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the flusher in the backend", func() bool { s, _ := ds.calls(); return len(s) == 1 })
	// The flusher is blocked, so submissions land in the queue and stay.
	for i := 1; i <= depth; i++ {
		if err := submit(); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		if d := st.samples.depth(); d != i {
			t.Fatalf("queue depth = %d after %d queued submissions", d, i)
		}
	}
	if err := submit(); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}

	close(ds.sampleGate)
	for i := 0; i < depth+1; i++ {
		if res := <-sr.ch; res.err != nil {
			t.Fatalf("accepted async request failed: %v", res.err)
		}
	}
	s := core.Stats().Datasets[0]
	if s.SampleRequests != depth+2 || s.SampleRejected != 1 {
		t.Fatalf("stats: %+v", s)
	}
}

// TestBlockingAsyncIdenticalSamples: the blocking forms are the async forms
// plus a wait, so for one seed and one request sequence the two return the
// same samples, bit for bit.
func TestBlockingAsyncIdenticalSamples(t *testing.T) {
	blocking := newAllocCore(t, Config{Flushers: 1})
	defer blocking.Close()
	async := newAllocCore(t, Config{Flushers: 1})
	defer async.Close()

	w := newWaiter[[]float64](1)
	for i := 0; i < 50; i++ {
		lo, hi, n := float64(i*37%5000), float64(5000+i*91%5000), 1+i%17
		want, err := blocking.SampleAppend("u", nil, lo, hi, n)
		if err != nil {
			t.Fatal(err)
		}
		if err := async.SampleAppendAsync("u", nil, lo, hi, n, nil, w); err != nil {
			t.Fatal(err)
		}
		got := <-w.ch
		if got.err != nil || !slices.Equal(got.v, want) {
			t.Fatalf("request %d: async %v (%v), blocking %v", i, got.v, got.err, want)
		}
	}
}
