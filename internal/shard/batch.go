package shard

import (
	"cmp"
	"slices"
	"sort"

	"github.com/irsgo/irs/internal/core"
	"github.com/irsgo/irs/internal/xrand"
)

// maxRetainedBatch bounds (in elements) the pooled sortable input copies
// InsertBatch and DeleteBatch keep between calls; one outsized batch does
// not pin its backing array forever.
const maxRetainedBatch = 1 << 16

// InsertBatch adds every item in items (duplicate keys allowed). The batch
// is sorted once, segmented by shard, and each involved shard is
// write-locked exactly once and takes its segment by finger search — the
// hot path for heavy insert traffic and bulk loads. The input slice is not
// retained or modified (sorting happens in a pooled copy, so steady-state
// batches allocate nothing). If any key is NaN it panics with
// core.ErrNaNKey before taking any lock, and inserts nothing.
func (c *engine[K, I, B]) InsertBatch(items []I) {
	if len(items) == 0 {
		return
	}
	for _, it := range items {
		if k := c.ops.keyOf(it); k != k {
			panic(core.ErrNaNKey)
		}
	}
	buf, _ := c.itemBufs.Get().(*[]I)
	if buf == nil {
		buf = new([]I)
	}
	own := append((*buf)[:0], items...)
	c.ops.sortItems(own)

	c.topoMu.RLock()
	grow := false
	segments(c, own, c.ops.keyOf, func(sh *shardState[K, I, B], seg []I) {
		sh.mu.Lock()
		sh.b.InsertSorted(seg)
		sh.n.Add(int64(len(seg)))
		c.total.Add(int64(len(seg)))
		sh.mu.Unlock()
		grow = grow || c.wantRebalance(sh)
	})
	c.topoMu.RUnlock()
	if cap(own) <= maxRetainedBatch {
		*buf = own[:0]
		c.itemBufs.Put(buf)
	}
	if grow {
		c.maybeRebalance()
	}
}

// DeleteBatch removes one occurrence of each key in keys, returning how
// many were present and removed. Locking mirrors InsertBatch.
func (c *engine[K, I, B]) DeleteBatch(keys []K) int {
	if len(keys) == 0 {
		return 0
	}
	buf, _ := c.keyBufs.Get().(*[]K)
	if buf == nil {
		buf = new([]K)
	}
	own := append((*buf)[:0], keys...)
	slices.Sort(own)
	// No NaN is stored, and slices.Sort puts NaNs first, where they would
	// stop the first shards' segments short: drop them.
	live := own
	for len(live) > 0 && live[0] != live[0] {
		live = live[1:]
	}

	removed := 0
	c.topoMu.RLock()
	segments(c, live, func(k K) K { return k }, func(sh *shardState[K, I, B], seg []K) {
		sh.mu.Lock()
		got := 0
		for _, k := range seg {
			if sh.b.Delete(k) {
				got++
			}
		}
		sh.n.Add(int64(-got))
		c.total.Add(int64(-got))
		sh.mu.Unlock()
		removed += got
	})
	c.topoMu.RUnlock()
	if cap(own) <= maxRetainedBatch {
		*buf = own[:0]
		c.keyBufs.Put(buf)
	}
	return removed
}

// segments splits the key-sorted slice into per-shard runs and invokes fn
// once per non-empty run, in shard order. It is a free function so one body
// serves both item batches (keyOf = c.ops.keyOf) and bare key batches
// (keyOf = identity) — DeleteBatch routes by key regardless of the
// backend's item type. Callers must hold topoMu shared.
func segments[K cmp.Ordered, I any, B Backend[K, I], T any](c *engine[K, I, B], sorted []T, keyOf func(T) K, fn func(sh *shardState[K, I, B], seg []T)) {
	start := 0
	for s := 0; s < len(c.shards) && start < len(sorted); s++ {
		end := len(sorted)
		if s < len(c.splits) {
			// Shard s owns keys strictly below splits[s] (equal keys route
			// right), so its run ends at the first key >= splits[s].
			split := c.splits[s]
			end = start + sort.Search(len(sorted)-start, func(i int) bool {
				return !(keyOf(sorted[start+i]) < split)
			})
		}
		if end > start {
			fn(c.shards[s], sorted[start:end])
			start = end
		}
	}
}

// Query is one range-sampling request in a SampleMany batch.
type Query[K cmp.Ordered] struct {
	Lo, Hi K
	T      int // number of samples to draw
}

// QueryStats is what SampleManyStatsAppend reports for one query: the
// in-range key count and sampling mass of [Lo, Hi], read under the same
// locks as the query's samples.
type QueryStats struct {
	N    int
	Mass float64
}

// SampleManyAppend answers a batch of range-sampling queries against one
// consistent snapshot: exactly the shards the batch's queries overlap are
// read-locked once for the whole batch, amortizing lock traffic across
// queries, and every query sees the same data version. Shards no query
// touches stay unlocked, so unrelated writers are never stalled.
//
// Result storage is the caller's: every sample is appended to dst and the
// per-query boundaries to starts, so after the call queries[i]'s samples
// occupy dst[starts[i]:starts[i+1]] (exactly len(queries)+1 boundaries are
// appended; pass dst[:0]/starts[:0] to reuse buffers across calls). A query
// over an empty range — or, for weighted backends, a range whose total
// weight is zero — contributes an empty segment rather than failing the
// batch; a negative T fails the whole batch with core.ErrInvalidCount
// before any sampling happens, leaving dst and starts unchanged. The
// queries are only read.
//
// Queries are answered in order on the calling goroutine from rng, with
// zero heap allocations once dst, starts, and the pooled per-query scratch
// have warmed up, whatever the batch's size; a fixed rng state draws the
// same samples on any number of cores. Callers that want parallelism run
// batches from several goroutines, each with its own rng.
func (c *engine[K, I, B]) SampleManyAppend(dst []K, starts []int, queries []Query[K], rng *xrand.RNG) ([]K, []int, error) {
	return c.SampleManyStatsAppend(dst, starts, queries, nil, rng)
}

// SampleManyStatsAppend is SampleManyAppend that also reports each query's
// range: a non-nil stats must have len(queries) elements, and stats[i] is
// set to the in-range key count and sampling mass of queries[i] (zero for
// an inverted range), read in the same pass and under the same locks as
// its samples — the mass a query reports is the mass of the population its
// samples were drawn from. On a negative T stats is left unchanged too.
func (c *engine[K, I, B]) SampleManyStatsAppend(dst []K, starts []int, queries []Query[K], stats []QueryStats, rng *xrand.RNG) ([]K, []int, error) {
	if stats != nil && len(stats) != len(queries) {
		panic("shard: SampleManyStatsAppend: len(stats) != len(queries)")
	}
	totalT := 0
	for _, q := range queries {
		if q.T < 0 {
			return dst, starts, core.ErrInvalidCount
		}
		totalT += q.T
	}
	starts = append(starts, len(dst))
	if len(queries) == 0 {
		return dst, starts, nil
	}
	dst = slices.Grow(dst, totalT) // at most one allocation, none once warm

	c.topoMu.RLock()
	defer c.topoMu.RUnlock()
	sc := c.getScratch()
	defer c.putScratch(sc)
	if !c.rlockUnion(sc, queries) {
		// Every query range is inverted: len(queries) empty segments.
		clear(stats)
		for range queries {
			starts = append(starts, len(dst))
		}
		return dst, starts, nil
	}
	defer c.runlockUnion(sc)

	for i, q := range queries {
		var st QueryStats
		dst, st = c.sampleQuery(sc, dst, q, rng)
		if stats != nil {
			stats[i] = st
		}
		starts = append(starts, len(dst))
	}
	return dst, starts, nil
}

// sampleQuery appends q's samples to dst and reports q's in-range count
// and mass, under the locks SampleManyStatsAppend holds. Only empty-range
// and zero-mass errors can arise, and they leave dst untouched: the query
// contributes an empty segment.
func (c *engine[K, I, B]) sampleQuery(sc *queryScratch[K], dst []K, q Query[K], rng *xrand.RNG) ([]K, QueryStats) {
	if !(q.Hi >= q.Lo) {
		return dst, QueryStats{}
	}
	out, n, mass, err := c.sampleLocked(sc, dst, q.Lo, q.Hi, q.T, rng)
	if err != nil {
		out = dst
	}
	return out, QueryStats{N: n, Mass: mass}
}

// SampleMany is SampleManyAppend returning one slice per query: results[i]
// holds the samples of queries[i], nil where SampleManyAppend's segment is
// empty (empty range, zero total weight, or T = 0).
func (c *engine[K, I, B]) SampleMany(queries []Query[K], rng *xrand.RNG) ([][]K, error) {
	flat, starts, err := c.SampleManyAppend(nil, nil, queries, rng)
	if err != nil {
		return nil, err
	}
	results := make([][]K, len(queries))
	for i := range results {
		if from, to := starts[i], starts[i+1]; from < to {
			results[i] = flat[from:to:to]
		}
	}
	return results, nil
}

// rlockUnion read-locks the exact union of the shards any query in the
// batch overlaps, recording the locked set in sc.needed (so repeated
// batches through pooled scratch never allocate the bitmap). Locks are
// acquired in ascending shard order — the global lock order — skipping the
// gaps. It reports false, taking no locks, when every query range is
// inverted. Callers must hold topoMu shared and later release via
// runlockUnion with the same scratch.
func (c *engine[K, I, B]) rlockUnion(sc *queryScratch[K], queries []Query[K]) bool {
	sc.needed = resizeBools(sc.needed, len(c.shards))
	any := false
	for _, q := range queries {
		if q.Hi < q.Lo {
			continue
		}
		a, b := c.shardRange(q.Lo, q.Hi)
		for i := a; i <= b; i++ {
			sc.needed[i] = true
		}
		any = true
	}
	if !any {
		return false
	}
	for i, n := range sc.needed {
		if n {
			c.shards[i].mu.RLock()
		}
	}
	return true
}

func (c *engine[K, I, B]) runlockUnion(sc *queryScratch[K]) {
	for i, n := range sc.needed {
		if n {
			c.shards[i].mu.RUnlock()
		}
	}
}
