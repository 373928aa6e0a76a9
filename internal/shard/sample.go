package shard

import (
	"cmp"

	"github.com/irsgo/irs/internal/core"
	"github.com/irsgo/irs/internal/split"
	"github.com/irsgo/irs/internal/xrand"
)

// queryScratch is the per-query working set, pooled so steady-state queries
// allocate only their output. Each in-flight query owns one exclusively.
type queryScratch[K cmp.Ordered] struct {
	runs   []Run      // prepared backend run per overlapping shard
	plan   split.Plan // allocation of sample positions to overlapping shards
	masses []float64  // in-range sampling mass per overlapping shard
	block  []K        // per-shard sample blocks, concatenated
	needed []bool     // shard-union lock set for SampleManyAppend batches
}

func (c *engine[K, I, B]) getScratch() *queryScratch[K] {
	if sc, ok := c.scratch.Get().(*queryScratch[K]); ok {
		return sc
	}
	return new(queryScratch[K])
}

func (c *engine[K, I, B]) putScratch(sc *queryScratch[K]) { c.scratch.Put(sc) }

// Sample returns t independent mass-proportional samples from [lo, hi]
// (uniform for the unweighted instantiation, weight-proportional for the
// weighted one). Safe to call concurrently with any other method; rng must
// be owned by the calling goroutine. Expected O(P + log n + t) with P the
// shard count.
func (c *engine[K, I, B]) Sample(lo, hi K, t int, rng *xrand.RNG) ([]K, error) {
	return c.SampleAppend(nil, lo, hi, t, rng)
}

// SampleAppend is Sample appending into dst.
func (c *engine[K, I, B]) SampleAppend(dst []K, lo, hi K, t int, rng *xrand.RNG) ([]K, error) {
	if t < 0 {
		return dst, core.ErrInvalidCount
	}
	c.topoMu.RLock()
	defer c.topoMu.RUnlock()
	if hi < lo {
		if t == 0 {
			return dst, nil
		}
		return dst, core.ErrEmptyRange
	}
	sa, sb := c.shardRange(lo, hi)
	c.rlockShards(sa, sb)
	defer c.runlockShards(sa, sb)
	sc := c.getScratch()
	defer c.putScratch(sc)
	out, _, _, err := c.sampleLocked(sc, dst, lo, hi, t, rng)
	return out, err
}

// sampleLocked draws t samples from [lo, hi] into dst and reports the
// range's in-range count n and sampling mass, summed in stage 1 from the
// same locked snapshot the samples come from (n and mass are valid
// whatever the error); with t = 0 it only reports them. The caller must
// hold topoMu shared and the read locks of every shard overlapping
// [lo, hi] (with lo <= hi), and must own sc and rng; t must be
// non-negative.
func (c *engine[K, I, B]) sampleLocked(sc *queryScratch[K], dst []K, lo, hi K, t int, rng *xrand.RNG) ([]K, int, float64, error) {
	sa, sb := c.shardRange(lo, hi)

	// Stage 1: prepare one run per overlapping shard — the query's only
	// range search — and sum the per-shard in-range counts and masses, one
	// consistent snapshot under the held locks.
	sc.masses = sc.masses[:0]
	for len(sc.runs) <= sb-sa {
		sc.runs = append(sc.runs, c.ops.newRun())
	}
	total, totalMass, populated, last := 0, 0.0, 0, 0
	for i := sa; i <= sb; i++ {
		n, m := c.shards[i].b.Prepare(sc.runs[i-sa], lo, hi)
		sc.masses = append(sc.masses, m)
		total += n
		totalMass += m
		if n > 0 {
			populated, last = populated+1, i-sa
		}
	}
	if t == 0 {
		return dst, total, totalMass, nil
	}
	if total == 0 {
		return dst, 0, 0, core.ErrEmptyRange
	}
	if totalMass <= 0 {
		// Keys exist but carry no sampling mass (weighted backends only).
		return dst, total, totalMass, c.ops.zeroMass
	}

	// Single populated shard: no split to draw.
	if populated == 1 {
		return c.shards[sa+last].b.Draw(sc.runs[last], dst, t, rng), total, totalMass, nil
	}

	// Stages 2-4 are internal/split's construction: allocate the t sample
	// positions over the overlapping shards, have each shard fill its
	// segment of one block from its prepared run, scatter the block back
	// into draw order. A zero-mass shard gets an empty segment.
	if err := sc.plan.Draw(sc.masses, t, rng); err != nil {
		return dst, total, totalMass, err // a mass, or their sum, overflowed float64
	}
	if cap(sc.block) < t {
		sc.block = make([]K, t)
	}
	block := sc.block[:t]
	for i := range sc.masses {
		if from, to := sc.plan.Seg(i); from < to {
			c.shards[sa+i].b.Draw(sc.runs[i], block[from:from:to], to-from, rng)
		}
	}
	return split.Scatter(dst, &sc.plan, block), total, totalMass, nil
}

func resizeBools(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = false
	}
	return s
}
