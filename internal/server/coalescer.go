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

// coalescer merges concurrently-arriving requests into batches, late and
// opportunistically:
//
//   - Admission is a bounded queue with a single entry, submit: it fails
//     fast with ErrOverloaded when the queue is full and ErrShuttingDown
//     after close — the backpressure contract a transport maps to 503s —
//     and otherwise returns at once; the answer arrives through the
//     request's Reply when its batch has been flushed. Whether the caller
//     blocks for it is the Reply's business (see Blocking), not the queue's.
//   - Each flusher worker pulls its own batches straight from that queue:
//     it takes one request, drains without blocking whatever else is
//     already queued (up to maxBatch), flushes, and repeats. A request that
//     finds a flusher idle is flushed at once, alone; batches form only
//     from what accumulated while every flusher was busy — under light load
//     they are small and flush in parallel, under heavy load the queue
//     backs up and they grow toward maxBatch, so coalescing intensifies
//     exactly when amortization pays and never costs an idle request a wait.
//   - Nothing sits between the queue and a flusher, so the admission bound
//     is exact: at most queueDepth requests queued plus the batches the
//     flushers hold inside the backend.
//
// A positive window (deprecated; see Config.CoalesceWindow) makes a flusher
// linger that long for batch-mates after its non-blocking drain; a zero
// window never constructs or touches a timer.
//
// Each flusher owns private state — its batch slice, its linger timer, and
// through the newFlush factory its sampling RNG and result scratch — so
// flushes need no locking of their own and a coalesced round trip performs
// no heap allocation of its own.
type coalescer[Q, R any] struct {
	reqs     chan request[Q, R]
	window   time.Duration
	maxBatch int

	mu       sync.RWMutex // guards closed; held shared around every send
	closed   bool
	flushers sync.WaitGroup
}

// newTimer constructs a flusher's linger timer; tests swap it to observe
// that the zero-window path never builds one.
var newTimer = time.NewTimer

// newCoalescer starts workers flusher goroutines, each flushing the batches
// it pulls through its own closure from newFlush.
func newCoalescer[Q, R any](queueDepth, maxBatch, workers int, window time.Duration, newFlush func() func([]request[Q, R])) *coalescer[Q, R] {
	c := &coalescer[Q, R]{
		reqs:     make(chan request[Q, R], queueDepth),
		window:   window,
		maxBatch: maxBatch,
	}
	c.flushers.Add(workers)
	for i := 0; i < workers; i++ {
		go c.run(newFlush())
	}
	return c
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

// close stops admission and waits until the flushers have answered every
// accepted request and exited. Safe to call more than once.
func (c *coalescer[Q, R]) close() {
	c.mu.Lock()
	if !c.closed {
		c.closed = true
		// No submit can be mid-send: sends happen under the read lock, and
		// every new submit now observes closed first.
		close(c.reqs)
	}
	c.mu.Unlock()
	c.flushers.Wait()
}

// run is one flusher: take a request, add whatever else is already queued,
// flush, repeat — until the queue has been closed and drained. A closed
// queue keeps yielding its backlog, so shutdown needs no protocol beyond
// the close itself.
func (c *coalescer[Q, R]) run(flush func([]request[Q, R])) {
	defer c.flushers.Done()
	batch := make([]request[Q, R], 0, 8)
	var timer *time.Timer // only with a window: built once, Reset per linger
	if c.window > 0 {
		timer = newTimer(c.window)
		timer.Stop()
	}
	for r := range c.reqs {
		batch = c.drain(append(batch, r))
		if timer != nil && len(batch) < c.maxBatch {
			batch = c.linger(batch, timer)
		}
		flush(batch)
		// Drop the references to replies and payloads; keep the array.
		clear(batch)
		batch = batch[:0]
	}
}

// drain extends batch, without blocking, with what is queued right now,
// stopping at maxBatch requests.
func (c *coalescer[Q, R]) drain(batch []request[Q, R]) []request[Q, R] {
	for len(batch) < c.maxBatch {
		select {
		case r, ok := <-c.reqs:
			if !ok {
				return batch
			}
			batch = append(batch, r)
		default:
			return batch
		}
	}
	return batch
}

// linger extends batch with whatever arrives before the window closes,
// stopping early at maxBatch requests or a closed queue. Go 1.23+ timer
// semantics make Reset and Stop safe without draining, so a configured
// window costs one timer per flusher, not one per batch.
func (c *coalescer[Q, R]) linger(batch []request[Q, R], t *time.Timer) []request[Q, R] {
	t.Reset(c.window)
	for len(batch) < c.maxBatch {
		select {
		case r, ok := <-c.reqs:
			if !ok {
				t.Stop()
				return batch
			}
			batch = append(batch, r)
		case <-t.C:
			return batch
		}
	}
	t.Stop()
	return batch
}
