package loadgen

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeClock never waits: SleepUntil moves time forward to the deadline
// plus whatever oversleep says, so tests are instant and deterministic.
type fakeClock struct {
	mu        sync.Mutex
	now       time.Time
	oversleep func(deadline time.Time) time.Duration
}

func newFakeClock() *fakeClock { return &fakeClock{now: time.Unix(1_000_000, 0)} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) SleepUntil(t time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !t.After(c.now) {
		return
	}
	c.now = t
	if c.oversleep != nil {
		c.now = t.Add(c.oversleep(t))
	}
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
}

func TestPaceFollowsAbsoluteTimeline(t *testing.T) {
	c := newFakeClock()
	start := c.Now().Add(time.Second)
	const interval = 500 * time.Microsecond
	var dues []time.Time
	Pace(c, start, Uniform(interval, 100), func(i int, due, woke time.Time) {
		if want := start.Add(time.Duration(i) * interval); !due.Equal(want) {
			t.Fatalf("arrival %d due %v, want start+%d*interval = %v", i, due, i, want)
		}
		if !woke.Equal(due) {
			t.Fatalf("arrival %d emitted at %v, due %v: an on-time clock has no lag", i, woke, due)
		}
		dues = append(dues, due)
	})
	if len(dues) != 100 {
		t.Fatalf("emitted %d arrivals, want 100", len(dues))
	}
}

func TestPaceCatchesUpAfterLateWakeups(t *testing.T) {
	c := newFakeClock()
	const interval = time.Millisecond
	// Every sleep overshoots by three and a half intervals: a ticker would
	// drop three ticks each time.
	c.oversleep = func(time.Time) time.Duration { return 3*interval + interval/2 }
	start := c.Now()
	var got []int
	var lags []time.Duration
	Pace(c, start, Uniform(interval, 50), func(i int, due, woke time.Time) {
		if want := start.Add(time.Duration(i) * interval); !due.Equal(want) {
			t.Fatalf("arrival %d due %v, want %v: a late wake-up must not shift the timeline", i, due, want)
		}
		if woke.Before(due) {
			t.Fatalf("arrival %d emitted %v before it was due", i, due.Sub(woke))
		}
		got = append(got, i)
		lags = append(lags, woke.Sub(due))
	})
	if len(got) != 50 || !sort.IntsAreSorted(got) {
		t.Fatalf("emitted %v, want 0..49 in order with none dropped", got)
	}
	// Arrival 1 is slept for and wakes 3.5 intervals late; 2, 3 and 4 are
	// already overdue then and go out at once, progressively less late.
	want := []time.Duration{0, 3*interval + interval/2, 2*interval + interval/2, interval + interval/2, interval / 2}
	for i, w := range want {
		if lags[i] != w {
			t.Fatalf("lag of arrival %d = %v, want %v (lags %v)", i, lags[i], w, lags[:5])
		}
	}
}

func TestOpenLoopTimesLatencyFromDueTime(t *testing.T) {
	c := newFakeClock()
	const interval, service, late = time.Millisecond, 200 * time.Microsecond, 300 * time.Microsecond
	c.oversleep = func(time.Time) time.Duration { return late }
	start := c.Now().Add(10 * time.Millisecond)
	res := OpenLoop(c, start, Uniform(interval, 20), 1, time.Second, func(ctx context.Context, i int) (uint8, bool) {
		c.advance(service)
		return 7, true
	})
	if len(res.Records) != 20 || len(res.Lag) != 20 {
		t.Fatalf("%d records and %d lags for 20 arrivals", len(res.Records), len(res.Lag))
	}
	for i, r := range res.Records {
		if r.Due != time.Duration(i)*interval {
			t.Fatalf("record %d due %v, want %v", i, r.Due, time.Duration(i)*interval)
		}
		if !r.OK || r.Kind != 7 {
			t.Fatalf("record %d = %+v, want the op's kind and success", i, r)
		}
		if r.Service() != service {
			t.Fatalf("record %d service %v, want %v", i, r.Service(), service)
		}
		// The pacer woke late, and the request pays for it: latency counts
		// from when it should have been sent, not from when it was.
		if r.Latency() < late+service {
			t.Fatalf("record %d latency %v hides the %v the generator ran late", i, r.Latency(), late)
		}
		if r.Latency() != r.Done-r.Due || r.Sent < r.Due+res.Lag[i] {
			t.Fatalf("record %d inconsistent: %+v lag %v", i, r, res.Lag[i])
		}
	}
}

func TestOpenLoopFailsRequestsUnansweredAfterGrace(t *testing.T) {
	c := newFakeClock()
	var cancelled atomic.Int32
	res := OpenLoop(c, c.Now(), Uniform(time.Millisecond, 8), 4, 20*time.Millisecond, func(ctx context.Context, i int) (uint8, bool) {
		if i%2 == 0 {
			return 0, true
		}
		<-ctx.Done() // a server that never answers
		cancelled.Add(1)
		return 0, false
	})
	for i, r := range res.Records {
		if r.OK != (i%2 == 0) {
			t.Errorf("record %d OK=%v: answered requests succeed, unanswered ones fail, none is dropped", i, r.OK)
		}
	}
	if cancelled.Load() != 4 {
		t.Errorf("%d unanswered requests were cancelled, want 4", cancelled.Load())
	}
}

func TestClosedLoopIssuesAStreamPrefix(t *testing.T) {
	c := newFakeClock()
	var stop atomic.Bool
	var issued atomic.Int64
	per := ClosedLoop(context.Background(), c, c.Now(), 8, &stop, func(ctx context.Context, caller, i int) (uint8, bool) {
		if issued.Add(1) >= 1000 {
			stop.Store(true)
		}
		return uint8(caller), true
	})
	seen := 0
	for caller, recs := range per {
		seen += len(recs)
		for _, r := range recs {
			if int(r.Kind) != caller || r.Due != r.Sent {
				t.Fatalf("caller %d holds record %+v", caller, r)
			}
		}
	}
	if int64(seen) != issued.Load() || seen < 1000 {
		t.Fatalf("%d records for %d requests issued", seen, issued.Load())
	}
}

func TestPoissonIsSeededAscendingAndAtRate(t *testing.T) {
	a, b := Poisson(3, 2000, 10*time.Second), Poisson(3, 2000, 10*time.Second)
	if len(a) != len(b) {
		t.Fatalf("same seed gave %d and %d arrivals", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed differs at arrival %d", i)
		}
		if i > 0 && a[i] < a[i-1] {
			t.Fatalf("schedule not ascending at %d", i)
		}
	}
	// 20000 expected, standard deviation about 141.
	if n := len(a); n < 19300 || n > 20700 {
		t.Fatalf("%d arrivals in 10 s at 2000/s", n)
	}
	if c := Poisson(4, 2000, 10*time.Second); len(c) == len(a) && c[0] == a[0] {
		t.Fatal("a different seed gave the same schedule")
	}
}
