package shard

import (
	"fmt"
	"slices"
	"testing"

	"github.com/irsgo/irs/internal/weighted"
	"github.com/irsgo/irs/internal/xrand"
)

// callLog records the Prepare and Draw calls counting backends see, and
// every Draw that breaks the Backend contract.
type callLog struct {
	prepares []any            // the backend of each Prepare call, in order
	draws    int              // Draw calls
	drawn    int              // samples those calls were asked for
	runs     map[Run]prepared // what the latest Prepare put in each run
	bad      []string         // contract violations, one line each
}

type prepared struct {
	by   any // the backend that prepared the run
	mass float64
}

func newCallLog() *callLog { return &callLog{runs: map[Run]prepared{}} }

func (l *callLog) reset() {
	l.prepares, l.draws, l.drawn, l.bad = l.prepares[:0], 0, 0, nil
	clear(l.runs)
}

func (l *callLog) prepare(b any, run Run, mass float64) {
	l.prepares = append(l.prepares, b)
	l.runs[run] = prepared{by: b, mass: mass}
}

func (l *callLog) draw(b any, run Run, t int) {
	l.draws++
	l.drawn += t
	switch p, ok := l.runs[run]; {
	case !ok || p.by != b:
		l.bad = append(l.bad, "Draw on a run another shard prepared, or none")
	case p.mass <= 0:
		l.bad = append(l.bad, fmt.Sprintf("Draw on a run of mass %v", p.mass))
	case t <= 0:
		l.bad = append(l.bad, fmt.Sprintf("Draw of %d samples", t))
	}
}

// countingDyn and countingTreap are the two backends with every Prepare
// and Draw call logged.
type countingDyn struct {
	*dynBackend[float64]
	log *callLog
}

func (b *countingDyn) Prepare(run Run, lo, hi float64) (int, float64) {
	n, m := b.dynBackend.Prepare(run, lo, hi)
	b.log.prepare(b, run, m)
	return n, m
}

func (b *countingDyn) Draw(run Run, dst []float64, t int, rng *xrand.RNG) []float64 {
	b.log.draw(b, run, t)
	return b.dynBackend.Draw(run, dst, t, rng)
}

type countingTreap struct {
	*treapBackend[float64]
	log *callLog
}

func (b *countingTreap) Prepare(run Run, lo, hi float64) (int, float64) {
	n, m := b.treapBackend.Prepare(run, lo, hi)
	b.log.prepare(b, run, m)
	return n, m
}

func (b *countingTreap) Draw(run Run, dst []float64, t int, rng *xrand.RNG) []float64 {
	b.log.draw(b, run, t)
	return b.treapBackend.Draw(run, dst, t, rng)
}

// countingEngine returns an engine over wrapped backends with fixed
// routing at splits.
func countingEngine[I any, B Backend[float64, I], W Backend[float64, I]](ops backendOps[float64, I, B], wrap func(B) W, splits []float64) *engine[float64, I, W] {
	c := new(engine[float64, I, W])
	c.init(backendOps[float64, I, W]{
		new:        func() W { return wrap(ops.new()) },
		fromSorted: func(items []I) W { return wrap(ops.fromSorted(items)) },
		keyOf:      ops.keyOf,
		sortItems:  ops.sortItems,
		newRun:     ops.newRun,
		zeroMass:   ops.zeroMass,
	}, len(splits)+1, 0)
	c.applySplits(splits)
	return c
}

// contractSplits make five shards: [0, 1000), [1000, 2000), an empty one
// between the duplicate split points, [2000, 3000) and [3000, 4000).
var contractSplits = []float64{1000, 2000, 2000, 3000}

// contractQueries hit one shard, a zero-mass slice of one (weighted), two
// shards with the empty one between them, one of them massless
// (weighted), every shard, and no key.
var contractQueries = []Query[float64]{
	{Lo: 1100, Hi: 1800, T: 16},
	{Lo: 2650, Hi: 2950, T: 16},
	{Lo: 1500, Hi: 2500, T: 1024},
	{Lo: 2700, Hi: 3300, T: 16},
	{Lo: -1, Hi: 5000, T: 1},
	{Lo: -1, Hi: 5000, T: 1024},
	{Lo: -1, Hi: 5000, T: 0},
	{Lo: 5000, Hi: 6000, T: 16},
}

// TestBackendContractPrepareOnce: Sample, SampleManyStatsAppend,
// RangeStats and Count call Prepare exactly once per overlapping shard per
// query — the query's only range search — and Draw only on a run its own
// shard prepared in that query with positive mass, for a nonzero
// allocation, on both instantiations. Draws hand out exactly the samples a
// query returns.
func TestBackendContractPrepareOnce(t *testing.T) {
	ul, wl := newCallLog(), newCallLog()
	u := countingEngine(dynOps[float64](), func(b *dynBackend[float64]) *countingDyn {
		return &countingDyn{b, ul}
	}, contractSplits)
	w := countingEngine(weightedOps[float64](3), func(b *treapBackend[float64]) *countingTreap {
		return &countingTreap{b, wl}
	}, contractSplits)
	keys := make([]float64, 4000)
	items := make([]weighted.Item[float64], len(keys))
	for i := range keys {
		keys[i] = goldenKey(i)
		items[i] = weighted.Item[float64]{Key: keys[i], Weight: goldenWeight(keys[i])}
	}
	u.InsertBatch(keys)
	w.InsertBatch(items)
	t.Run("unweighted", func(t *testing.T) { checkPrepareOnce(t, u, ul) })
	t.Run("weighted", func(t *testing.T) { checkPrepareOnce(t, w, wl) })
}

func checkPrepareOnce[I any, B Backend[float64, I]](t *testing.T, c *engine[float64, I, B], log *callLog) {
	t.Helper()
	rng := xrand.New(9)
	index := map[any]int{} // shard index of each backend
	for i, sh := range c.shards {
		index[sh.b] = i
	}
	// overlapping lists the indices of the shards q overlaps, in order.
	overlapping := func(q Query[float64]) []int {
		sa, sb := c.shardRange(q.Lo, q.Hi)
		var is []int
		for i := sa; i <= sb; i++ {
			is = append(is, i)
		}
		return is
	}
	// check compares the log with one Prepare per shard in want and
	// samples samples drawn; a Draw of no samples is logged as bad.
	check := func(what string, want []int, samples int) {
		t.Helper()
		var got []int
		for _, b := range log.prepares {
			got = append(got, index[b])
		}
		if !slices.Equal(got, want) {
			t.Errorf("%s: Prepare called on shards %v, want once on each of %v", what, got, want)
		}
		if log.draws > len(want) || log.drawn != samples {
			t.Errorf("%s: %d Draw calls for %d samples, want at most %d calls for %d", what, log.draws, log.drawn, len(want), samples)
		}
		for _, msg := range log.bad {
			t.Errorf("%s: %s", what, msg)
		}
	}

	var all []int
	for _, q := range contractQueries {
		want := overlapping(q)
		all = append(all, want...)

		log.reset()
		out, err := c.Sample(q.Lo, q.Hi, q.T, rng)
		if err != nil && len(out) != 0 {
			t.Fatalf("Sample %+v: %d samples with error %v", q, len(out), err)
		}
		check(fmt.Sprintf("Sample %+v", q), want, len(out))

		log.reset()
		n, mass := c.RangeStats(q.Lo, q.Hi)
		check(fmt.Sprintf("RangeStats %+v", q), want, 0)

		log.reset()
		if got := c.Count(q.Lo, q.Hi); got != n {
			t.Errorf("Count %+v = %d, RangeStats count %d", q, got, n)
		}
		check(fmt.Sprintf("Count %+v", q), want, 0)

		if q.T > 0 && err == nil && (n == 0 || mass <= 0) {
			t.Errorf("Sample %+v succeeded on a range of count %d and mass %v", q, n, mass)
		}
	}

	log.reset()
	stats := make([]QueryStats, len(contractQueries))
	out, _, err := c.SampleManyStatsAppend(nil, nil, contractQueries, stats, rng)
	if err != nil {
		t.Fatal(err)
	}
	check("SampleManyStatsAppend", all, len(out))
}
