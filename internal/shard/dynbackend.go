package shard

import (
	"cmp"

	"github.com/irsgo/irs/internal/chunks"
	"github.com/irsgo/irs/internal/core"
	"github.com/irsgo/irs/internal/xrand"
)

// dynBackend adapts core.Dynamic — the paper's chunked-list structure — to
// the Backend interface: items are bare keys and every key has unit
// sampling mass, so Prepare reports the count twice and cross-shard
// queries reduce to the exact count-proportional multinomial.
type dynBackend[K cmp.Ordered] struct {
	dyn *core.Dynamic[K]
}

var _ Backend[int, int] = (*dynBackend[int])(nil)

// The engine screens NaN keys before routing them here, so inserts skip
// core.Dynamic's own check.
func (b *dynBackend[K]) Insert(key K)          { core.List(b.dyn).Insert(key) }
func (b *dynBackend[K]) InsertSorted(keys []K) { core.List(b.dyn).InsertSorted(keys) }
func (b *dynBackend[K]) Delete(key K) bool     { return b.dyn.Delete(key) }
func (b *dynBackend[K]) Len() int              { return b.dyn.Len() }
func (b *dynBackend[K]) Contains(key K) bool   { return b.dyn.Contains(key) }
func (b *dynBackend[K]) Validate() error       { return b.dyn.Validate() }
func (b *dynBackend[K]) MinKey() K             { return b.dyn.SelectRank(0) }
func (b *dynBackend[K]) MaxKey() K             { return b.dyn.SelectRank(b.dyn.Len() - 1) }

func (b *dynBackend[K]) Prepare(run Run, lo, hi K) (int, float64) {
	r := run.(*chunks.Run[K])
	core.List(b.dyn).InitRun(r, lo, hi)
	n := r.Count()
	return n, float64(n)
}

func (b *dynBackend[K]) Draw(run Run, dst []K, t int, rng *xrand.RNG) []K {
	return run.(*chunks.Run[K]).SampleAppend(dst, t, rng)
}

func (b *dynBackend[K]) AppendRange(dst []K, lo, hi K) []K {
	return b.dyn.AppendRange(dst, lo, hi)
}

// VisitItems hands over each chunk's key slice as one block.
func (b *dynBackend[K]) VisitItems(visit func(block []K) error) error {
	return core.List(b.dyn).VisitKeys(visit)
}

// dynOps wires the unweighted instantiation's construction hooks.
func dynOps[K cmp.Ordered]() backendOps[K, K, *dynBackend[K]] {
	return backendOps[K, K, *dynBackend[K]]{
		new: func() *dynBackend[K] { return &dynBackend[K]{dyn: core.NewDynamic[K]()} },
		fromSorted: func(keys []K) *dynBackend[K] {
			d, err := core.NewDynamicFromSorted(keys)
			if err != nil {
				panic("shard: sorted segment rejected: " + err.Error())
			}
			return &dynBackend[K]{dyn: d}
		},
		keyOf:     func(k K) K { return k },
		sortItems: sortKeys[K],
		newRun:    func() Run { return new(chunks.Run[K]) },
		// Unit mass: a nonempty range always has positive mass, so this is
		// unreachable; ErrEmptyRange keeps the failure mode sane anyway.
		zeroMass: core.ErrEmptyRange,
	}
}

// Concurrent is the sharded, concurrency-safe dynamic IRS structure: the
// engine instantiated over core.Dynamic. All methods may be called from any
// number of goroutines simultaneously; the only non-shareable argument is
// the *xrand.RNG passed to sampling calls, which each goroutine must own
// (derive per-goroutine streams with Split).
type Concurrent[K cmp.Ordered] struct {
	engine[K, K, *dynBackend[K]]
}

var _ core.Sampler[int] = (*Concurrent[int])(nil)

// AppendKeys appends every stored key in sorted order — a consistent
// point-in-time export taken under all shard read locks. O(n). It is the
// unweighted spelling of the engine's AppendAllItems (items are keys);
// VisitItems is the streaming export that copies nothing.
func (c *Concurrent[K]) AppendKeys(dst []K) []K {
	return c.AppendAllItems(dst)
}

// New returns an empty Concurrent that will grow toward target shards as
// data arrives (split points are learned by the automatic rebalance once
// shards fill up). target < 1 is treated as 1. Equivalent to NewSeeded with
// seed 0.
func New[K cmp.Ordered](target int) *Concurrent[K] {
	return NewSeeded[K](target, 0)
}

// NewSeeded is New with an explicit seed anchoring the structure's
// NewStream sequence, the symmetric counterpart of NewWeighted's seed
// parameter. The seed never influences any sampling distribution.
func NewSeeded[K cmp.Ordered](target int, seed uint64) *Concurrent[K] {
	c := &Concurrent[K]{}
	c.init(dynOps[K](), target, seed)
	return c
}

// NewFromSorted bulk-loads a Concurrent from sorted keys, learning
// equi-depth split points so each of the (up to) shards shards starts with
// an equal share of the data. Returns core.ErrUnsorted on unsorted input,
// which includes input holding a NaN. Equivalent to NewFromSortedSeeded
// with seed 0.
func NewFromSorted[K cmp.Ordered](keys []K, shards int) (*Concurrent[K], error) {
	return NewFromSortedSeeded(keys, shards, 0)
}

// NewFromSortedSeeded is NewFromSorted with an explicit seed anchoring the
// structure's NewStream sequence.
func NewFromSortedSeeded[K cmp.Ordered](keys []K, shards int, seed uint64) (*Concurrent[K], error) {
	if !chunks.IsSorted(keys) {
		return nil, core.ErrUnsorted
	}
	c := NewSeeded[K](shards, seed)
	c.rebuildFromSorted(keys, shards)
	return c, nil
}

// NewFromSplits returns an empty Concurrent with len(splits)+1 shards and
// fixed routing at the given sorted split points: the layout is never
// changed automatically (no auto-rebalance), so duplicated split points
// produce permanently empty middle shards, and an intentionally skewed
// layout stays put. An explicit Rebalance call is the one exception — it
// abandons the fixed layout for learned equi-depth splits. Returns
// core.ErrUnsorted if splits are not in non-decreasing order or hold a NaN.
func NewFromSplits[K cmp.Ordered](splits []K) (*Concurrent[K], error) {
	if !chunks.IsSorted(splits) {
		return nil, core.ErrUnsorted
	}
	c := New[K](len(splits) + 1)
	c.applySplits(splits)
	return c, nil
}
