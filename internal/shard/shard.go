// Package shard implements the sharded, concurrency-safe dynamic IRS layer
// exported as irs.Concurrent and irs.WeightedConcurrent: the bridge between
// the single-threaded structures of Hu–Qiao–Tao (PODS 2014) — and their
// weighted extensions — and a server that must absorb concurrent inserts,
// deletes, and sampling queries on many cores.
//
// # Design
//
// The sharding machinery is a backend-generic engine: everything about
// partitioning, locking, routing, rebalancing, and cross-shard sampling is
// written once against the Backend interface (backend.go), and each
// instantiation plugs in one single-threaded structure per shard. Two
// instantiations are provided: Concurrent over core.Dynamic (unweighted,
// every key has unit sampling mass) and WeightedConcurrent over
// weighted.Treap (each key carries a weight; samples are drawn with
// probability proportional to weight).
//
// The key space is partitioned by P-1 split points into P contiguous
// shards: shard i owns the half-open key interval [splits[i-1], splits[i]),
// with splits[-1] = -inf and splits[P-1] = +inf, so every key routes to
// exactly one shard (keys equal to a split point route right). Each shard
// wraps its own backend behind its own sync.RWMutex, so updates to
// disjoint shards proceed in parallel and readers of one shard never block
// readers of another. Split points are learned from the data (equi-depth
// over a sorted load) and re-learned by Rebalance, which is also triggered
// automatically when the structure has grown enough to deserve more
// shards. Its other automatic trigger, a shard holding more than
// imbalanceFactor times its fair share plus imbalanceSlack keys, cannot
// fire at four shards or fewer (no shard can hold more than four times its
// fair share there), so at those shard counts a skewed or monotone load
// stays where it lands until an explicit Rebalance.
//
// # Sampling across shards
//
// A query (lo, hi, t) must return t samples that are exactly
// mass-proportional over the union of the overlapping shards' range
// contents — the distribution must not be distorted by the partition. The
// query holds the read locks of every overlapping shard for its whole
// duration, so the stats and the draws see one consistent snapshot. Each
// overlapping shard is prepared once: Backend.Prepare searches the range in
// O(log n) time, fills one pooled run per shard, and reports the shard's
// in-range count and sampling mass (for the unweighted backend the mass is
// the key count; for the weighted backend it is the range's total weight).
// The shards are then the parts of internal/split's construction — a
// multinomial allocation of the t sample positions over the masses,
// per-shard draws from the prepared runs (read-only, searching nothing)
// into one block, and a scatter back into draw order. RangeStats and Count
// are the prepare stage alone. Why that is exact and independent is argued
// once, in internal/split's package comment.
//
// Every query draws in order on the caller's goroutine from the caller's
// RNG, shard after shard, so a fixed RNG state yields the same samples on
// any number of cores. The engine starts no goroutines: parallelism belongs
// to its callers (the serving layer's flushers, or a library user's own
// goroutines), each drawing from its own RNG under shared read locks. So
// shards buy write-lock granularity and bounded rebuilds, not parallel draws.
//
// # Locking
//
// Two lock levels, always acquired in the same order: the topology lock
// (an RWMutex guarding the split points and the shard directory) is taken
// shared by every operation and exclusively by Rebalance; then shard locks
// are taken in ascending shard order. Readers take shard read locks —
// queries never mutate a shard because backend sampling is read-only and
// runs through caller-owned scratch — and writers take shard write locks.
// The batch entry points (InsertBatch, SampleManyAppend) acquire each
// involved shard lock once per batch rather than once per element, which is
// where the concurrent layer's throughput on hot paths comes from.
package shard

import (
	"cmp"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/irsgo/irs/internal/core"
)

// Tuning constants for the automatic rebalance policy. They only affect
// performance, never correctness: any split layout yields exact sampling.
const (
	// minShardKeys is the target minimum occupancy before the structure
	// grows toward its target shard count: with fewer than minShardKeys
	// keys per shard, extra shards cost queries more in per-shard split
	// work than they buy writers in lock parallelism.
	minShardKeys = 2048
	// imbalanceFactor triggers a rebalance when one shard holds more than
	// imbalanceFactor times its fair share of the keys.
	imbalanceFactor = 4
	// imbalanceSlack keeps tiny structures from rebalancing on noise.
	imbalanceSlack = 512
)

// engine is the backend-generic sharding engine. All methods may be called
// from any number of goroutines simultaneously; the only non-shareable
// argument is the *xrand.RNG passed to sampling calls, which each goroutine
// must own (derive per-goroutine streams with Split). The exported
// structures (Concurrent, WeightedConcurrent) embed an engine over their
// backend type.
type engine[K cmp.Ordered, I any, B Backend[K, I]] struct {
	ops backendOps[K, I, B]

	// topoMu guards splits and shards (the topology). Every operation
	// holds it shared; Rebalance holds it exclusively, which also grants
	// exclusive access to every shard without taking the shard locks.
	topoMu sync.RWMutex
	splits []K                    // len(shards)-1 sorted split points
	shards []*shardState[K, I, B] // len >= 1, in key order

	total       atomic.Int64 // total stored items (maintained under shard locks)
	target      int          // desired shard count once the data warrants it
	fixedSplits bool         // NewFromSplits: never rebalance automatically
	rebalancing atomic.Bool  // single-flight guard for automatic rebalances
	rebalanceN  atomic.Int64 // total size at the last rebalance (rate limiter)
	scratch     sync.Pool    // *queryScratch[K]
	itemBufs    sync.Pool    // *[]I, InsertBatch's sortable copy of the input
	keyBufs     sync.Pool    // *[]K, DeleteBatch's sortable copy of the input

	streamSeed uint64        // base seed of the NewStream sequence (stream.go)
	streamCtr  atomic.Uint64 // streams handed out so far
}

// shardState is one shard: a backend behind its own lock.
type shardState[K cmp.Ordered, I any, B Backend[K, I]] struct {
	mu sync.RWMutex
	b  B
	n  atomic.Int64 // mirror of b.Len(), readable without mu
}

// init prepares an empty engine that will grow toward target shards as
// data arrives (split points are learned by the automatic rebalance once
// shards fill up). target < 1 is treated as 1. seed anchors the NewStream
// sequence (see stream.go); it never influences any sampling distribution.
func (c *engine[K, I, B]) init(ops backendOps[K, I, B], target int, seed uint64) {
	if target < 1 {
		target = 1
	}
	c.ops = ops
	c.target = target
	c.streamSeed = seed
	c.shards = []*shardState[K, I, B]{{b: ops.new()}}
}

// applySplits pins the topology to len(splits)+1 empty shards with fixed
// routing at the given sorted split points: the layout is never changed
// automatically, so duplicated split points produce permanently empty
// middle shards, and an intentionally skewed layout stays put. An explicit
// Rebalance call is the one exception — it abandons the fixed layout for
// learned equi-depth splits. Constructor-only (no concurrent access).
func (c *engine[K, I, B]) applySplits(splits []K) {
	c.fixedSplits = true
	c.splits = append([]K(nil), splits...)
	c.shards = make([]*shardState[K, I, B], len(splits)+1)
	for i := range c.shards {
		c.shards[i] = &shardState[K, I, B]{b: c.ops.new()}
	}
}

// route returns the index of the shard owning key. Callers must hold
// topoMu (shared or exclusive).
func (c *engine[K, I, B]) route(key K) int {
	// First split strictly greater than key; keys equal to a split route
	// to the shard on its right.
	return sort.Search(len(c.splits), func(i int) bool { return key < c.splits[i] })
}

// shardRange returns the inclusive shard index interval overlapping
// [lo, hi]. Callers must hold topoMu.
func (c *engine[K, I, B]) shardRange(lo, hi K) (int, int) {
	return c.route(lo), c.route(hi)
}

// Insert adds item (duplicate keys allowed). Only the owning shard is
// locked. It panics with core.ErrNaNKey, before taking any lock, if the
// item's key is NaN.
func (c *engine[K, I, B]) Insert(item I) {
	key := c.ops.keyOf(item)
	if key != key {
		panic(core.ErrNaNKey)
	}
	c.topoMu.RLock()
	sh := c.shards[c.route(key)]
	sh.mu.Lock()
	sh.b.Insert(item)
	sh.n.Add(1)
	// total moves before the shard unlock so that anyone holding every
	// shard lock (Validate, Stats) sees per-shard sums and the total agree.
	c.total.Add(1)
	sh.mu.Unlock()
	grow := c.wantRebalance(sh)
	c.topoMu.RUnlock()
	if grow {
		c.maybeRebalance()
	}
}

// Delete removes one occurrence of key, reporting whether one existed.
func (c *engine[K, I, B]) Delete(key K) bool {
	c.topoMu.RLock()
	sh := c.shards[c.route(key)]
	sh.mu.Lock()
	ok := sh.b.Delete(key)
	if ok {
		sh.n.Add(-1)
		c.total.Add(-1)
	}
	sh.mu.Unlock()
	c.topoMu.RUnlock()
	return ok
}

// Len returns the number of stored items. It is maintained atomically, so a
// read concurrent with updates returns the count as of some recent moment.
func (c *engine[K, I, B]) Len() int { return int(c.total.Load()) }

// Shards returns the current number of shards.
func (c *engine[K, I, B]) Shards() int {
	c.topoMu.RLock()
	defer c.topoMu.RUnlock()
	return len(c.shards)
}

// Contains reports whether key is stored at least once.
func (c *engine[K, I, B]) Contains(key K) bool {
	c.topoMu.RLock()
	defer c.topoMu.RUnlock()
	sh := c.shards[c.route(key)]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.b.Contains(key)
}

// Count returns the number of keys in [lo, hi]: the count half of
// RangeStats, with the same consistent snapshot.
func (c *engine[K, I, B]) Count(lo, hi K) int {
	n, _ := c.RangeStats(lo, hi)
	return n
}

// RangeStats returns the number of keys and the total sampling mass in
// [lo, hi] (key count for the unweighted backend, total weight for the
// weighted one) — stage 1 of a sampling query without the draw, exposed
// for callers that partition the key space above the engine (the cluster
// router). All overlapping shards are read-locked together, so the pair is
// a consistent snapshot.
func (c *engine[K, I, B]) RangeStats(lo, hi K) (count int, mass float64) {
	if hi < lo {
		return 0, 0
	}
	c.topoMu.RLock()
	defer c.topoMu.RUnlock()
	sa, sb := c.shardRange(lo, hi)
	c.rlockShards(sa, sb)
	defer c.runlockShards(sa, sb)
	sc := c.getScratch()
	defer c.putScratch(sc)
	_, count, mass, _ = c.sampleLocked(sc, nil, lo, hi, 0, nil)
	return count, mass
}

// KeyBounds returns the smallest and largest stored keys. ok is false when
// the structure is empty, in which case lo and hi are zero values.
func (c *engine[K, I, B]) KeyBounds() (lo, hi K, ok bool) {
	c.topoMu.RLock()
	defer c.topoMu.RUnlock()
	c.rlockShards(0, len(c.shards)-1)
	defer c.runlockShards(0, len(c.shards)-1)
	for _, sh := range c.shards {
		if sh.b.Len() == 0 {
			continue
		}
		if !ok {
			lo = sh.b.MinKey()
			ok = true
		}
		hi = sh.b.MaxKey()
	}
	return lo, hi, ok
}

// AppendRange appends all keys in [lo, hi] in sorted order (shards are
// contiguous key intervals, so per-shard sorted output concatenates to a
// globally sorted result).
func (c *engine[K, I, B]) AppendRange(dst []K, lo, hi K) []K {
	if hi < lo {
		return dst
	}
	c.topoMu.RLock()
	defer c.topoMu.RUnlock()
	sa, sb := c.shardRange(lo, hi)
	c.rlockShards(sa, sb)
	defer c.runlockShards(sa, sb)
	for i := sa; i <= sb; i++ {
		dst = c.shards[i].b.AppendRange(dst, lo, hi)
	}
	return dst
}

// rlockShards read-locks shards sa..sb inclusive, in ascending order (the
// global lock order; see the package comment).
func (c *engine[K, I, B]) rlockShards(sa, sb int) {
	for i := sa; i <= sb; i++ {
		c.shards[i].mu.RLock()
	}
}

func (c *engine[K, I, B]) runlockShards(sa, sb int) {
	for i := sa; i <= sb; i++ {
		c.shards[i].mu.RUnlock()
	}
}

// wantRebalance reports whether the shard just touched justifies re-learning
// the topology. Callers must hold topoMu shared; the check is a few atomic
// loads, cheap enough for the insert hot path.
func (c *engine[K, I, B]) wantRebalance(sh *shardState[K, I, B]) bool {
	if c.fixedSplits {
		return false
	}
	total := c.total.Load()
	p := int64(len(c.shards))
	if desired := c.desiredShards(total); desired > len(c.shards) {
		return true
	}
	if sh.n.Load() <= imbalanceFactor*(total/p)+imbalanceSlack {
		return false
	}
	// Rate limiter: an imbalance a rebalance cannot fix (e.g. one giant run
	// of duplicate keys that no split point can separate) must not trigger
	// an O(n) rebuild per insert. Require the structure to have changed by
	// a constant fraction since the last rebalance, which amortizes the
	// rebuild cost to O(1) per update.
	last := c.rebalanceN.Load()
	diff := total - last
	if diff < 0 {
		diff = -diff
	}
	return diff >= last/4+imbalanceSlack
}

// desiredShards returns how many shards a structure of n keys should use:
// grow toward the target only once shards would hold minShardKeys each.
func (c *engine[K, I, B]) desiredShards(n int64) int {
	d := int(n / minShardKeys)
	if d < 1 {
		d = 1
	}
	if d > c.target {
		d = c.target
	}
	return d
}

// maybeRebalance runs Rebalance unless another goroutine already is.
func (c *engine[K, I, B]) maybeRebalance() {
	if !c.rebalancing.CompareAndSwap(false, true) {
		return
	}
	defer c.rebalancing.Store(false)
	c.Rebalance()
}

// Rebalance re-learns equi-depth split points from the current contents and
// redistributes the items. The shard count grows toward the target as the
// data warrants (see desiredShards) and never shrinks below its current
// value (except when there are fewer keys than shards), so an explicitly
// requested layout is preserved. It takes the
// topology lock exclusively, so it serializes with every other operation;
// cost is O(n). Calling it is never required for correctness — routing
// stays exact under any split layout — only for balance.
func (c *engine[K, I, B]) Rebalance() {
	c.topoMu.Lock()
	defer c.topoMu.Unlock()
	// An explicit rebalance on a fixed-splits structure abandons the fixed
	// layout and opts into the managed (auto-rebalancing) policy.
	c.fixedSplits = false
	n := 0
	for _, sh := range c.shards {
		n += sh.b.Len()
	}
	items := make([]I, 0, n)
	for _, sh := range c.shards {
		// Shards are contiguous key intervals in order, so concatenating
		// their key-ordered contents is globally sorted.
		// The visitor never fails, so neither does the walk.
		_ = sh.b.VisitItems(func(block []I) error {
			items = append(items, block...)
			return nil
		})
	}
	p := c.desiredShards(int64(n))
	if p < len(c.shards) {
		p = len(c.shards)
	}
	c.rebuildFromSorted(items, p)
}

// rebuildFromSorted replaces the whole topology with p equi-depth shards
// over the given key-sorted items. Callers must hold topoMu exclusively (or
// be a constructor with no concurrent access).
func (c *engine[K, I, B]) rebuildFromSorted(items []I, p int) {
	n := len(items)
	if p < 1 {
		p = 1
	}
	if p > n && n > 0 {
		p = n
	}
	if n == 0 {
		p = 1
	}
	c.splits = c.splits[:0]
	c.shards = c.shards[:0]
	start := 0
	for i := 0; i < p; i++ {
		end := (n * (i + 1)) / p
		if i < p-1 {
			// The split point is the first key of the next shard; keys equal
			// to a split route right, so duplicates of that key must not
			// stay in this shard. Retreat end past the duplicate run.
			split := c.ops.keyOf(items[end])
			for end > start && c.ops.keyOf(items[end-1]) == split {
				end--
			}
			c.splits = append(c.splits, split)
		} else {
			end = n
		}
		sh := &shardState[K, I, B]{b: c.ops.fromSorted(items[start:end])}
		sh.n.Store(int64(end - start))
		c.shards = append(c.shards, sh)
		start = end
	}
	c.total.Store(int64(n))
	c.rebalanceN.Store(int64(n))
}

// AppendAllItems appends every stored item in key order — the consistent
// point-in-time view of VisitItems, copied out. O(n).
func (c *engine[K, I, B]) AppendAllItems(dst []I) []I {
	// The visitor never fails, so neither does the walk.
	_ = c.VisitItems(func(block []I) error {
		dst = append(dst, block...)
		return nil
	})
	return dst
}

// VisitItems hands every stored item to visit in key order, in blocks,
// stopping at the first error visit returns. Shards are contiguous key
// intervals in order, so their key-ordered contents in turn are globally
// sorted. The blocks are shard storage (unweighted: one chunk's keys) or a
// small reused buffer (weighted), so visit must not modify or retain them.
// It is a consistent point-in-time view: it holds every shard's read lock
// until it returns, so writers wait for the whole walk, and so do readers
// of a shard a writer is queued on; visit must not write to the
// structure. Snapshots encode from it: the serving layer holds its
// writers back before they reach the shard locks, so its readers never
// wait on the walk.
func (c *engine[K, I, B]) VisitItems(visit func(block []I) error) error {
	c.topoMu.RLock()
	defer c.topoMu.RUnlock()
	c.rlockShards(0, len(c.shards)-1)
	defer c.runlockShards(0, len(c.shards)-1)
	for _, sh := range c.shards {
		if err := sh.b.VisitItems(visit); err != nil {
			return err
		}
	}
	return nil
}

// Stats describes the current topology, for monitoring and tests.
type Stats struct {
	Len      int   // total stored keys
	Shards   int   // shard count
	PerShard []int // keys per shard, in key order
}

// Stats returns a consistent snapshot of the topology.
func (c *engine[K, I, B]) Stats() Stats {
	c.topoMu.RLock()
	defer c.topoMu.RUnlock()
	c.rlockShards(0, len(c.shards)-1)
	defer c.runlockShards(0, len(c.shards)-1)
	st := Stats{Shards: len(c.shards), PerShard: make([]int, len(c.shards))}
	for i, sh := range c.shards {
		st.PerShard[i] = sh.b.Len()
		st.Len += st.PerShard[i]
	}
	return st
}

// Validate checks every invariant: per-shard structural invariants, key
// ownership (every key lies inside its shard's interval), and counter
// consistency. O(n); intended for tests.
func (c *engine[K, I, B]) Validate() error {
	c.topoMu.RLock()
	defer c.topoMu.RUnlock()
	c.rlockShards(0, len(c.shards)-1)
	defer c.runlockShards(0, len(c.shards)-1)
	if len(c.shards) != len(c.splits)+1 {
		return errValidate("shard/split count mismatch")
	}
	for i := 1; i < len(c.splits); i++ {
		if c.splits[i-1] > c.splits[i] {
			return errValidate("splits out of order")
		}
	}
	total := 0
	for i, sh := range c.shards {
		if err := sh.b.Validate(); err != nil {
			return err
		}
		n := sh.b.Len()
		if int64(n) != sh.n.Load() {
			return errValidate("shard length counter out of sync")
		}
		total += n
		if n == 0 {
			continue
		}
		first, last := sh.b.MinKey(), sh.b.MaxKey()
		if i > 0 && first < c.splits[i-1] {
			return errValidate("key below shard lower bound")
		}
		if i < len(c.splits) && !(last < c.splits[i]) {
			return errValidate("key at or above shard upper bound")
		}
	}
	if int64(total) != c.total.Load() {
		return errValidate("total length counter out of sync")
	}
	return nil
}

type errValidate string

func (e errValidate) Error() string { return "shard: " + string(e) }
