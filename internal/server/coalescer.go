package server

import (
	"sync"
	"time"
)

// Reply receives the answer to one asynchronous submission. Every function
// that takes a Reply follows one contract: a validation, routing, or
// admission error is returned synchronously and the Reply is never invoked;
// on a nil return Deliver is invoked exactly once — from another goroutine,
// or inline when the answer needs no work — and a drain (Close, Remove)
// still answers everything accepted before it.
//
// Implementations are typically pooled pointer-structs (a pointer already
// on the heap boxes into the interface without allocating), which keeps
// submission allocation-free for every caller: the persistent TCP
// transport, whose reader goroutine must not block on a flush, hands in a
// Reply that encodes the response; a caller that wants to block goes
// through Blocking.
type Reply[R any] interface {
	// Deliver must not block for long: it runs inside the flush loop that
	// answers every other request in the batch.
	Deliver(v R, err error)
}

// request is one caller waiting inside a coalescer: a payload plus the
// Reply its flush answers through.
type request[Q, R any] struct {
	q    Q
	done Reply[R]
}

type result[R any] struct {
	v   R
	err error
}

// waiter is the Reply a blocking caller parks on: Deliver drops the answer
// into a 1-buffered channel, so the flusher never waits for the caller to
// be scheduled.
type waiter[R any] struct {
	ch chan result[R]
}

func (w *waiter[R]) Deliver(v R, err error) { w.ch <- result[R]{v: v, err: err} }

// Blocking is the one place a caller blocks for an answer: it turns a
// submission under the Reply contract into a call that returns the answer.
// Waiters are pooled — every accepted request is answered exactly once, so
// after Do has received, the channel is empty and safe to hand to the next
// caller — which keeps a blocking round trip as allocation-free as an
// async one. The zero value is ready to use.
type Blocking[R any] struct {
	pool sync.Pool // *waiter[R]
}

// Do calls submit with a pooled waiter as its Reply and, unless submit
// fails synchronously, blocks until the answer is delivered.
func (b *Blocking[R]) Do(submit func(done Reply[R]) error) (R, error) {
	w, ok := b.pool.Get().(*waiter[R])
	if !ok {
		w = &waiter[R]{ch: make(chan result[R], 1)}
	}
	defer b.pool.Put(w)
	if err := submit(w); err != nil {
		var zero R
		return zero, err
	}
	res := <-w.ch
	return res.v, res.err
}

// batch is one gatherer-formed batch travelling to a flusher. It is a
// pointer-carried struct (not a bare slice) so the flusher can return the
// backing array to the pool after flushing — the slice may have grown in
// the gatherer's hands, and a pooled pointer round-trips that growth
// without an allocation per Put.
type batch[Q, R any] struct {
	reqs []request[Q, R]
}

// coalescer merges concurrently-arriving requests into batches:
//
//   - Admission is a bounded queue with a single entry, submit: it fails
//     fast with ErrOverloaded when the queue is full and ErrShuttingDown
//     after close — the backpressure contract a transport maps to 503s —
//     and otherwise returns at once; the answer arrives through the
//     request's Reply when its batch has been flushed. Whether the caller
//     blocks for it is the Reply's business (see Blocking), not the queue's.
//   - One gatherer goroutine forms batches: it takes a queued request,
//     drains everything else already waiting, lingers up to window for more
//     when configured, and stops a batch at maxBatch requests.
//   - A pool of flusher workers executes batches, so coalescing never
//     serializes independent backend calls behind one core: under light
//     load batches are small and flush in parallel; under heavy load the
//     workers saturate, the queue backs up, and batches grow toward
//     maxBatch — coalescing intensifies exactly when amortization pays.
//
// Each flusher owns private state (in particular its sampling RNG and
// result scratch) through the newFlush factory, so flushes need no locking
// of their own. Everything per-request on the steady-state path — the batch
// slice, the gatherer's linger timer — is pooled or reused, so a coalesced
// round trip performs no heap allocation of its own.
type coalescer[Q, R any] struct {
	reqs     chan request[Q, R]
	batches  chan *batch[Q, R]
	window   time.Duration
	maxBatch int

	batchPool sync.Pool // *batch[Q, R], recycled across flushes

	mu       sync.RWMutex // guards closed; held shared around every send
	closed   bool
	loopDone chan struct{}
	flushers sync.WaitGroup
}

// newCoalescer starts the gatherer and workers flusher goroutines, each
// flushing batches through its own closure from newFlush.
func newCoalescer[Q, R any](queueDepth, maxBatch, workers int, window time.Duration, newFlush func() func([]request[Q, R])) *coalescer[Q, R] {
	c := &coalescer[Q, R]{
		reqs:     make(chan request[Q, R], queueDepth),
		batches:  make(chan *batch[Q, R], workers),
		window:   window,
		maxBatch: maxBatch,
		loopDone: make(chan struct{}),
	}
	c.flushers.Add(workers)
	for i := 0; i < workers; i++ {
		go func() {
			defer c.flushers.Done()
			flush := newFlush()
			for b := range c.batches {
				flush(b.reqs)
				c.putBatch(b)
			}
		}()
	}
	go c.loop()
	return c
}

func (c *coalescer[Q, R]) getBatch() *batch[Q, R] {
	if b, ok := c.batchPool.Get().(*batch[Q, R]); ok {
		return b
	}
	return &batch[Q, R]{reqs: make([]request[Q, R], 0, 8)}
}

// putBatch clears the flushed batch — dropping its references to replies
// and payloads so the pool retains only the backing array — and
// recycles it.
func (c *coalescer[Q, R]) putBatch(b *batch[Q, R]) {
	clear(b.reqs)
	b.reqs = b.reqs[:0]
	c.batchPool.Put(b)
}

// depth reports how many accepted requests are waiting in the queue
// right now — a channel length read, safe from any goroutine, which is
// what /metrics scrapes as the live queue depth.
func (c *coalescer[Q, R]) depth() int { return len(c.reqs) }

// capacity reports the queue bound (Config.QueueDepth).
func (c *coalescer[Q, R]) capacity() int { return cap(c.reqs) }

// submit enqueues q under the Reply contract: a full queue answers
// ErrOverloaded, a closed coalescer ErrShuttingDown, and an accepted request
// is answered from a flusher goroutine — close drains the queue before it
// returns.
func (c *coalescer[Q, R]) submit(q Q, done Reply[R]) error {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.closed {
		return ErrShuttingDown
	}
	select {
	case c.reqs <- request[Q, R]{q: q, done: done}:
		return nil
	default:
		return ErrOverloaded
	}
}

// close stops admission, waits until every accepted request has been
// flushed, and stops the goroutines. Safe to call more than once.
func (c *coalescer[Q, R]) close() {
	c.mu.Lock()
	already := c.closed
	c.closed = true
	c.mu.Unlock()
	if !already {
		// No submit can be mid-send: sends happen under the read lock, and
		// every new submit now observes closed first.
		close(c.reqs)
	}
	<-c.loopDone
	c.flushers.Wait()
}

// loop is the gatherer: batch formation only, never backend work. Its
// linger timer is created once and Reset per batch (Go 1.23+ timer
// semantics make Reset safe without draining), so a configured window does
// not cost a timer allocation per batch.
func (c *coalescer[Q, R]) loop() {
	defer close(c.loopDone)
	defer close(c.batches)
	var timer *time.Timer
	defer func() {
		if timer != nil {
			timer.Stop()
		}
	}()
	for {
		r, ok := <-c.reqs
		if !ok {
			return
		}
		b := c.getBatch()
		b.reqs = append(b.reqs, r)
		alive := c.gather(&b.reqs, &timer)
		c.batches <- b
		if !alive {
			return
		}
	}
}

// gather fills batch with whatever else is queued: everything immediately
// available, then — when a linger window is configured — whatever arrives
// before the window closes, stopping early at maxBatch requests. It reports
// false once the queue has been closed and drained.
func (c *coalescer[Q, R]) gather(batch *[]request[Q, R], timer **time.Timer) bool {
	for len(*batch) < c.maxBatch {
		select {
		case r, ok := <-c.reqs:
			if !ok {
				return false
			}
			*batch = append(*batch, r)
			continue
		default:
		}
		break
	}
	if c.window <= 0 || len(*batch) >= c.maxBatch {
		return true
	}
	t := *timer
	if t == nil {
		t = time.NewTimer(c.window)
		*timer = t
	} else {
		t.Reset(c.window)
	}
	for len(*batch) < c.maxBatch {
		select {
		case r, ok := <-c.reqs:
			if !ok {
				t.Stop()
				return false
			}
			*batch = append(*batch, r)
		case <-t.C:
			return true
		}
	}
	t.Stop()
	return true
}
