package shard

import (
	"cmp"
	"runtime"
	"sync"

	"github.com/irsgo/irs/internal/core"
	"github.com/irsgo/irs/internal/split"
	"github.com/irsgo/irs/internal/xrand"
)

// parallelSampleMin is the per-query sample count above which the per-shard
// sampling stage fans out across goroutines. Below it, goroutine start-up
// costs more than the O(1)-per-sample work it would parallelize.
const parallelSampleMin = 4096

// queryScratch is the per-query working set, pooled so steady-state queries
// allocate only their output. Each in-flight query owns one exclusively.
type queryScratch[K cmp.Ordered] struct {
	run    Run        // backend sampling scratch for one shard at a time
	plan   split.Plan // allocation of sample positions to overlapping shards
	counts []int      // in-range count per overlapping shard
	masses []float64  // in-range sampling mass per overlapping shard
	block  []K        // per-shard sample blocks, concatenated
	needed []bool     // shard-union lock set for SampleManyAppend batches
}

func (c *engine[K, I, B]) getScratch() *queryScratch[K] {
	if sc, ok := c.scratch.Get().(*queryScratch[K]); ok {
		return sc
	}
	return &queryScratch[K]{run: c.ops.newRun()}
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
	return c.sampleLocked(sc, dst, lo, hi, t, rng)
}

// sampleLocked draws t samples from [lo, hi] into dst. The caller must hold
// topoMu shared and the read locks of every shard overlapping [lo, hi]
// (with lo <= hi), and must own sc and rng.
func (c *engine[K, I, B]) sampleLocked(sc *queryScratch[K], dst []K, lo, hi K, t int, rng *xrand.RNG) ([]K, error) {
	if t < 0 {
		return dst, core.ErrInvalidCount
	}
	sa, sb := c.shardRange(lo, hi)

	// Stage 1: per-shard in-range counts and masses, one consistent
	// snapshot under the held locks.
	sc.counts = sc.counts[:0]
	sc.masses = sc.masses[:0]
	total, positive := 0, 0 // keys in range; shards with sampling mass
	totalMass := 0.0
	for i := sa; i <= sb; i++ {
		n, m := c.shards[i].b.RangeStats(lo, hi)
		sc.counts = append(sc.counts, n)
		sc.masses = append(sc.masses, m)
		total += n
		totalMass += m
		if m > 0 {
			positive++
		}
	}
	if total == 0 {
		if t == 0 {
			return dst, nil
		}
		return dst, core.ErrEmptyRange
	}
	if t == 0 {
		return dst, nil
	}
	if totalMass <= 0 {
		// Keys exist but carry no sampling mass (weighted backends only).
		return dst, c.ops.zeroMass
	}

	// Single populated shard: no split to draw.
	if nz := firstNonzero(sc.counts); sc.counts[nz] == total {
		return c.shards[sa+nz].b.SampleRunAppend(sc.run, dst, lo, hi, t, rng)
	}

	// Stages 2-4 are internal/split's construction: allocate the t sample
	// positions over the overlapping shards, have each shard fill its
	// segment of one block, scatter the block back into draw order.
	if err := sc.plan.Draw(sc.masses, t, rng); err != nil {
		return dst, err // unreachable: masses are finite with a positive sum
	}
	if cap(sc.block) < t {
		sc.block = make([]K, t)
	}
	block := sc.block[:t]
	if t >= parallelSampleMin && positive > 1 && runtime.GOMAXPROCS(0) > 1 {
		c.sampleShardsParallel(sc, block, lo, hi, sa, rng)
	} else {
		for i := range sc.masses {
			from, to := sc.plan.Seg(i)
			if from == to {
				continue
			}
			if _, err := c.shards[sa+i].b.SampleRunAppend(sc.run, block[from:from:to], lo, hi, to-from, rng); err != nil {
				return dst, err // unreachable: mass was positive under lock
			}
		}
	}
	return split.Scatter(dst, &sc.plan, block), nil
}

// sampleShardsParallel runs the per-shard sampling stage on one goroutine
// per populated shard. RNG streams are derived with Split in shard order
// before the fan-out, so results are deterministic for a fixed rng state
// (though different from the sequential path's stream usage).
func (c *engine[K, I, B]) sampleShardsParallel(sc *queryScratch[K], block []K, lo, hi K, sa int, rng *xrand.RNG) {
	var wg sync.WaitGroup
	for i := range sc.masses {
		from, to := sc.plan.Seg(i)
		if from == to {
			continue
		}
		seg, want := block[from:from:to], to-from
		sh := c.shards[sa+i]
		sub := rng.Split()
		wg.Add(1)
		go func() {
			defer wg.Done()
			run := c.getRun()
			_, _ = sh.b.SampleRunAppend(run, seg, lo, hi, want, sub)
			c.putRun(run)
		}()
	}
	wg.Wait()
}

// firstNonzero returns the index of the first nonzero count, or 0.
func firstNonzero(counts []int) int {
	for i, n := range counts {
		if n > 0 {
			return i
		}
	}
	return 0
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
