package loadgen

import (
	"context"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"
)

// Record is one finished request. Times are offsets from the loop's start
// so a run's records compare without carrying wall-clock values.
type Record struct {
	// Due is when the request was meant to be sent: its slot on the
	// open-loop timeline, or the moment a closed-loop caller issued it.
	Due time.Duration
	// Sent is when a worker actually issued it; Sent-Due is queueing in
	// the generator plus pacer lag, and counts toward open-loop latency.
	Sent time.Duration
	Done time.Duration
	Kind uint8 // caller-defined request kind (sample, write, ...)
	OK   bool
}

// Latency is the request's latency as its user saw it: from the intended
// send time, so a stall delays the requests behind it instead of hiding
// them (coordinated omission).
func (r Record) Latency() time.Duration { return r.Done - r.Due }

// Service is the time the request spent outside the generator.
func (r Record) Service() time.Duration { return r.Done - r.Sent }

// Uniform is the schedule of n arrivals spaced interval apart: arrival i
// is due at i*interval.
func Uniform(interval time.Duration, n int) []time.Duration {
	s := make([]time.Duration, n)
	for i := range s {
		s[i] = time.Duration(i) * interval
	}
	return s
}

// Poisson is the schedule of independent users arriving at rate per
// second for span: exponential gaps drawn from seed, so the same seed
// gives the same arrivals. Evenly spaced arrivals would lock in phase
// with any periodic behaviour of the server — a coalescer that flushes on
// the next arrival splits them into two latency modes with the median on
// the edge between them — which independent users never do.
func Poisson(seed uint64, rate float64, span time.Duration) []time.Duration {
	rng := rand.New(rand.NewPCG(seed, 0x6172726976616c)) // "arrival"
	var s []time.Duration
	for at := 0.0; ; {
		at += rng.ExpFloat64() / rate
		d := time.Duration(at * float64(time.Second))
		if d >= span {
			return s
		}
		s = append(s, d)
	}
}

// Pace calls emit(i, due, woke) for every arrival of an absolute
// timeline: arrival i is due at start + schedule[i] whatever happened to
// the arrivals before it. A late wake-up emits every overdue arrival at
// once — nothing is skipped and the timeline never shifts (a time.Ticker
// would silently drop the missed ticks). woke is the clock reading at
// emission; woke-due is the generator's lag. schedule must be ascending.
func Pace(c Clock, start time.Time, schedule []time.Duration, emit func(i int, due, woke time.Time)) {
	now := c.Now()
	for i, at := range schedule {
		due := start.Add(at)
		if now.Before(due) {
			c.SleepUntil(due)
			now = c.Now()
		}
		emit(i, due, now)
	}
}

// Op performs request i and reports its kind and whether it succeeded.
type Op func(ctx context.Context, i int) (kind uint8, ok bool)

// OpenResult is what an open loop measured.
type OpenResult struct {
	Records []Record        // one per arrival, indexed by arrival
	Lag     []time.Duration // pacer lag per arrival (woke - due)
}

// OpenLoop issues the arrivals of schedule, offsets from start. The pacer
// hands each arrival to a fixed pool of workers through a queue sized for
// the whole run, so a slow response delays nothing behind it and nothing
// is dropped. Requests still unanswered grace after the last arrival are
// cancelled and count as failed.
func OpenLoop(c Clock, start time.Time, schedule []time.Duration, workers int, grace time.Duration, op Op) OpenResult {
	n := len(schedule)
	res := OpenResult{Records: make([]Record, n), Lag: make([]time.Duration, n)}
	queue := make(chan int, n) // holds every arrival: the pacer never blocks on a send
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				rec := &res.Records[i]
				rec.Due = schedule[i]
				rec.Sent = c.Now().Sub(start)
				rec.Kind, rec.OK = op(ctx, i)
				rec.Done = c.Now().Sub(start)
			}
		}()
	}
	Pace(c, start, schedule, func(i int, due, woke time.Time) {
		res.Lag[i] = woke.Sub(due)
		queue <- i
	})
	close(queue)
	// The grace period is real time even under an injected clock: it bounds
	// how long the loop waits for a server, not a point on the timeline.
	timer := time.AfterFunc(grace, cancel)
	defer timer.Stop()
	wg.Wait()
	return res
}

// ClosedLoop runs callers goroutines, each issuing its next request only
// after the previous one completed, until stop is set. Request numbers
// come from one shared counter, so the requests issued are a prefix of
// the workload's stream whichever caller sends them. Records are returned
// per caller, in issue order.
func ClosedLoop(ctx context.Context, c Clock, start time.Time, callers int, stop *atomic.Bool, op func(ctx context.Context, caller, i int) (kind uint8, ok bool)) [][]Record {
	out := make([][]Record, callers)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < callers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			recs := make([]Record, 0, 1<<14)
			for !stop.Load() && ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				sent := c.Now().Sub(start)
				kind, ok := op(ctx, w, i)
				recs = append(recs, Record{Due: sent, Sent: sent, Done: c.Now().Sub(start), Kind: kind, OK: ok})
			}
			out[w] = recs
		}()
	}
	wg.Wait()
	return out
}
