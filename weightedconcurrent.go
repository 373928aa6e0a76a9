package irs

import (
	"cmp"

	"github.com/irsgo/irs/internal/shard"
	"github.com/irsgo/irs/internal/weighted"
)

// WeightedConcurrent is the sharded, concurrency-safe weighted IRS
// structure: the key space is split into contiguous shards, each wrapping a
// WeightedTreap behind its own reader/writer lock, and cross-shard queries
// distribute their t samples over shards with an exact multinomial split
// proportional to per-shard range *weight*, so weight-proportional sampling
// and independence are preserved under any partition (see internal/shard
// for the backend-generic engine both Concurrent and WeightedConcurrent
// instantiate).
//
// Every method is safe for any number of concurrent goroutines — inserts,
// deletes, weight updates, counts, and sampling may all run simultaneously.
// The one rule is the library-wide RNG contract: an *RNG may not be shared,
// so each sampling goroutine passes its own (derive streams with RNG.Split).
//
// Prefer the batch entry points on hot paths: InsertBatch and SampleMany
// acquire each involved shard lock once per batch instead of once per item
// or query, and SampleMany additionally answers every query in the batch
// against one consistent snapshot. Sampling a nonempty range whose total
// weight is zero returns ErrZeroWeightRange (SampleMany yields a nil slice
// for such queries, like empty ranges). Inserts reject a NaN key with
// ErrNaNKey, before any lock is taken.
type WeightedConcurrent[K cmp.Ordered] = shard.WeightedConcurrent[K]

// NewWeightedConcurrent returns an empty WeightedConcurrent that grows
// toward shards shards as data arrives: split points are learned
// automatically once there is enough data to balance, and re-learned when a
// shard drifts far from its fair share. seed drives the per-shard treap
// rebalancing priorities and anchors the NewStream sequence (see the
// seeding contract in the package documentation) — never the sampling
// distribution.
func NewWeightedConcurrent[K cmp.Ordered](shards int, seed uint64) *WeightedConcurrent[K] {
	return shard.NewWeighted[K](shards, seed)
}

// NewWeightedConcurrentFromItems bulk-loads a WeightedConcurrent from items
// in any order, learning equi-depth split points so each shard starts with
// an equal share of the keys. Returns ErrInvalidWeight if any weight is
// negative, NaN, or above MaxWeight, and ErrNaNKey if any key is NaN.
func NewWeightedConcurrentFromItems[K cmp.Ordered](items []WeightedItem[K], shards int, seed uint64) (*WeightedConcurrent[K], error) {
	return shard.NewWeightedFromItems(items, shards, seed)
}

// NewWeightedConcurrentFromSortedItems bulk-loads a WeightedConcurrent
// from items already in non-decreasing key order, validating order and
// weights in one pass without copying or re-sorting — the fast path for
// key-ordered inputs like recovered snapshots. Returns
// ErrUnsortedWeightedItems if the order does not hold (a NaN key is in no
// order) and
// ErrInvalidWeight if any weight is negative, NaN, or above MaxWeight. The input
// is not retained or modified.
func NewWeightedConcurrentFromSortedItems[K cmp.Ordered](items []WeightedItem[K], shards int, seed uint64) (*WeightedConcurrent[K], error) {
	return shard.NewWeightedFromSortedItems(items, shards, seed)
}

// NewWeightedConcurrentFromSplits returns an empty WeightedConcurrent with
// fixed routing at the given sorted split points (len(splits)+1 shards):
// shard i holds keys k with splits[i-1] <= k < splits[i], and the layout is
// never changed automatically. An explicit Rebalance call switches the
// structure to learned equi-depth splits. Returns ErrUnsortedWeightedItems
// if splits are not in non-decreasing order.
func NewWeightedConcurrentFromSplits[K cmp.Ordered](splits []K, seed uint64) (*WeightedConcurrent[K], error) {
	return shard.NewWeightedFromSplits(splits, seed)
}

// ErrUnsortedWeightedItems is returned by weighted FromSorted-style
// constructors when items (or split points) are not in key order.
var ErrUnsortedWeightedItems = weighted.ErrUnsortedItems
