package shard

import (
	"cmp"
	"slices"
	"sync/atomic"

	"github.com/irsgo/irs/internal/weighted"
	"github.com/irsgo/irs/internal/xrand"
)

// treapBackend adapts weighted.Treap — the fully dynamic weighted sampler —
// to the Backend interface: items are (key, weight) pairs, the sampling
// mass of a range is its total weight, and cross-shard queries split their
// samples with a multinomial proportional to per-shard range weight. All
// query paths used here (RangeStats, SampleRunAppend through caller-owned
// TreapRun scratch, AppendRange) are read-only on the treap, which is what
// lets the engine serve weighted readers under shared locks.
type treapBackend[K cmp.Ordered] struct {
	tr *weighted.Treap[K]
}

var _ Backend[int, weighted.Item[int]] = (*treapBackend[int])(nil)

func (b *treapBackend[K]) Insert(it weighted.Item[K]) {
	// Weights were validated by the WeightedConcurrent wrappers before the
	// engine routed the item here.
	if err := b.tr.Insert(it.Key, it.Weight); err != nil {
		panic("shard: unvalidated weight reached a backend: " + err.Error())
	}
}

func (b *treapBackend[K]) Delete(key K) bool   { return b.tr.Delete(key) }
func (b *treapBackend[K]) Len() int            { return b.tr.Len() }
func (b *treapBackend[K]) Contains(key K) bool { return b.tr.Count(key, key) > 0 }
func (b *treapBackend[K]) Count(lo, hi K) int  { return b.tr.Count(lo, hi) }
func (b *treapBackend[K]) Validate() error     { return b.tr.Validate() }

func (b *treapBackend[K]) MinKey() K {
	k, _ := b.tr.MinKey()
	return k
}

func (b *treapBackend[K]) MaxKey() K {
	k, _ := b.tr.MaxKey()
	return k
}

func (b *treapBackend[K]) RangeStats(lo, hi K) (int, float64) {
	return b.tr.RangeStats(lo, hi)
}

func (b *treapBackend[K]) SampleRunAppend(run Run, dst []K, lo, hi K, t int, rng *xrand.RNG) ([]K, error) {
	return b.tr.SampleRunAppend(run.(*weighted.TreapRun[K]), dst, lo, hi, t, rng)
}

func (b *treapBackend[K]) AppendRange(dst []K, lo, hi K) []K {
	return b.tr.AppendRange(dst, lo, hi)
}

func (b *treapBackend[K]) AppendItems(dst []weighted.Item[K]) []weighted.Item[K] {
	return b.tr.AppendItems(dst)
}

// weightedOps wires the weighted instantiation's construction hooks. Each
// backend (including the ones Rebalance rebuilds) gets a distinct treap
// priority seed derived deterministically from seed, so fixed-seed runs
// stay reproducible.
func weightedOps[K cmp.Ordered](seed uint64) backendOps[K, weighted.Item[K], *treapBackend[K]] {
	var ctr atomic.Uint64
	next := func() uint64 { return seed + ctr.Add(1)*0x9e3779b97f4a7c15 }
	return backendOps[K, weighted.Item[K], *treapBackend[K]]{
		new: func() *treapBackend[K] {
			return &treapBackend[K]{tr: weighted.NewTreap[K](next())}
		},
		fromSorted: func(items []weighted.Item[K]) *treapBackend[K] {
			tr, err := weighted.NewTreapFromSortedItems(next(), items)
			if err != nil {
				panic("shard: sorted segment rejected: " + err.Error())
			}
			return &treapBackend[K]{tr: tr}
		},
		keyOf: func(it weighted.Item[K]) K { return it.Key },
		sortItems: func(s []weighted.Item[K]) {
			slices.SortStableFunc(s, func(a, b weighted.Item[K]) int {
				return cmp.Compare(a.Key, b.Key)
			})
		},
		newRun:   func() Run { return new(weighted.TreapRun[K]) },
		zeroMass: weighted.ErrZeroWeightRange,
	}
}

// WeightedConcurrent is the sharded, concurrency-safe weighted IRS
// structure: the engine instantiated over weighted.Treap. Every stored key
// carries a non-negative weight; sampling queries return keys with
// probability proportional to their weight among the range contents, with
// the cross-shard multinomial split proportional to per-shard range weight
// so the partition never distorts the distribution.
//
// All methods may be called from any number of goroutines simultaneously
// (inserts, deletes, weight updates, counts, and sampling queries); the
// only non-shareable argument is the *xrand.RNG passed to sampling calls.
// Sampling a range that holds keys of only zero weight returns
// weighted.ErrZeroWeightRange; in a SampleMany batch such queries yield a
// nil slice, like empty ranges.
type WeightedConcurrent[K cmp.Ordered] struct {
	engine[K, weighted.Item[K], *treapBackend[K]]
}

var _ weighted.Sampler[int] = (*WeightedConcurrent[int])(nil)

// NewWeighted returns an empty WeightedConcurrent that will grow toward
// target shards as data arrives. seed drives the per-shard treap
// rebalancing priorities and anchors the NewStream sequence — never the
// sampling distribution; target < 1 is treated as 1.
func NewWeighted[K cmp.Ordered](target int, seed uint64) *WeightedConcurrent[K] {
	w := &WeightedConcurrent[K]{}
	w.init(weightedOps[K](seed), target, seed)
	return w
}

// NewWeightedFromItems bulk-loads a WeightedConcurrent from items in any
// order, learning equi-depth split points so each of the (up to) shards
// shards starts with an equal share of the keys. Returns
// weighted.ErrInvalidWeight if any weight is negative, NaN, or infinite.
// The input is not retained or modified.
func NewWeightedFromItems[K cmp.Ordered](items []weighted.Item[K], shards int, seed uint64) (*WeightedConcurrent[K], error) {
	if err := validateItemWeights(items); err != nil {
		return nil, err
	}
	w := NewWeighted[K](shards, seed)
	own := append([]weighted.Item[K](nil), items...)
	w.ops.sortItems(own)
	w.rebuildFromSorted(own, shards)
	return w, nil
}

// NewWeightedFromSortedItems bulk-loads a WeightedConcurrent from items
// already in non-decreasing key order, validating order and weights in one
// pass and skipping NewWeightedFromItems' copy+sort — the recovery path
// for snapshot exports, which are written in key order. Returns
// weighted.ErrUnsortedItems if the order does not hold and
// weighted.ErrInvalidWeight if any weight is negative, NaN, or infinite.
// The input is not retained or modified.
func NewWeightedFromSortedItems[K cmp.Ordered](items []weighted.Item[K], shards int, seed uint64) (*WeightedConcurrent[K], error) {
	for i, it := range items {
		if !weighted.ValidWeight(it.Weight) {
			return nil, weighted.ErrInvalidWeight
		}
		if i > 0 && items[i-1].Key > it.Key {
			return nil, weighted.ErrUnsortedItems
		}
	}
	w := NewWeighted[K](shards, seed)
	w.rebuildFromSorted(items, shards)
	return w, nil
}

// NewWeightedFromSplits returns an empty WeightedConcurrent with fixed
// routing at the given sorted split points (len(splits)+1 shards); the
// layout is never changed automatically, exactly like
// Concurrent/NewFromSplits. Returns weighted.ErrUnsortedItems if splits are
// not in non-decreasing order.
func NewWeightedFromSplits[K cmp.Ordered](splits []K, seed uint64) (*WeightedConcurrent[K], error) {
	for i := 1; i < len(splits); i++ {
		if splits[i-1] > splits[i] {
			return nil, weighted.ErrUnsortedItems
		}
	}
	w := NewWeighted[K](len(splits)+1, seed)
	w.applySplits(splits)
	return w, nil
}

func validateItemWeights[K cmp.Ordered](items []weighted.Item[K]) error {
	for _, it := range items {
		if !weighted.ValidWeight(it.Weight) {
			return weighted.ErrInvalidWeight
		}
	}
	return nil
}

// Insert adds one weighted item (duplicate keys allowed). It shadows the
// engine's item insert to validate the weight first: only the owning shard
// is locked, and invalid weights are rejected with
// weighted.ErrInvalidWeight before any lock is taken.
func (w *WeightedConcurrent[K]) Insert(key K, weight float64) error {
	if !weighted.ValidWeight(weight) {
		return weighted.ErrInvalidWeight
	}
	w.engine.Insert(weighted.Item[K]{Key: key, Weight: weight})
	return nil
}

// InsertItem adds one weighted item; it is Insert with the Item carrier
// type (convenient next to InsertBatch).
func (w *WeightedConcurrent[K]) InsertItem(item weighted.Item[K]) error {
	return w.Insert(item.Key, item.Weight)
}

// InsertBatch adds every item in items (duplicate keys allowed), sorting
// the batch once and write-locking each involved shard exactly once. All
// weights are validated up front: on weighted.ErrInvalidWeight nothing is
// inserted. The input slice is not retained or modified.
func (w *WeightedConcurrent[K]) InsertBatch(items []weighted.Item[K]) error {
	if err := validateItemWeights(items); err != nil {
		return err
	}
	w.engine.InsertBatch(items)
	return nil
}

// UpdateWeight sets the weight of one occurrence of key, reporting whether
// the key was present. Only the owning shard is write-locked. Returns
// weighted.ErrInvalidWeight for negative, NaN, or infinite weights.
func (w *WeightedConcurrent[K]) UpdateWeight(key K, weight float64) (bool, error) {
	if !weighted.ValidWeight(weight) {
		return false, weighted.ErrInvalidWeight
	}
	w.topoMu.RLock()
	defer w.topoMu.RUnlock()
	sh := w.shards[w.route(key)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.b.tr.UpdateWeight(key, weight)
}

// TotalWeight returns the weight mass in [lo, hi]: the mass half of
// RangeStats, with the same consistent snapshot.
func (w *WeightedConcurrent[K]) TotalWeight(lo, hi K) float64 {
	_, m := w.RangeStats(lo, hi)
	return m
}

// AppendItems appends every stored (key, weight) pair in key order — a
// consistent snapshot taken under all shard read locks. O(n).
func (w *WeightedConcurrent[K]) AppendItems(dst []weighted.Item[K]) []weighted.Item[K] {
	return w.AppendAllItems(dst)
}
