package irs

import (
	"cmp"

	"github.com/irsgo/irs/internal/shard"
)

// Concurrent is the sharded, concurrency-safe dynamic IRS structure: the
// key space is split into contiguous shards, each wrapping a Dynamic behind
// its own reader/writer lock, and cross-shard queries distribute their t
// samples over shards with an exact multinomial split so uniformity and
// independence are preserved bit-for-bit (see internal/shard for the
// design).
//
// Every method is safe for any number of concurrent goroutines. The one
// rule is the library-wide RNG contract: an *RNG may not be shared, so each
// sampling goroutine passes its own (derive streams with RNG.Split). One
// call runs entirely on the caller's goroutine, however many samples or
// shards it spans: parallelism comes from calling from several goroutines.
//
// Prefer the batch entry points on hot paths: InsertBatch and SampleMany
// acquire each involved shard lock once per batch instead of once per key
// or query, and SampleMany additionally answers every query in the batch
// against one consistent snapshot.
type Concurrent[K cmp.Ordered] = shard.Concurrent[K]

// ConcurrentQuery is one range-sampling request in a Concurrent.SampleMany
// batch: draw T samples from [Lo, Hi].
type ConcurrentQuery[K cmp.Ordered] = shard.Query[K]

// ConcurrentQueryStats is what Concurrent.SampleManyStatsAppend reports for
// one query: the range's key count N and sampling mass, read under the same
// locks as the query's samples.
type ConcurrentQueryStats = shard.QueryStats

// ConcurrentStats is a consistent snapshot of a Concurrent's topology.
type ConcurrentStats = shard.Stats

// NewConcurrent returns an empty Concurrent that grows toward shards
// shards as data arrives: split points are learned automatically once
// there is enough data to balance, and re-learned when a shard drifts far
// from its fair share. Equivalent to NewConcurrentSeeded with seed 0.
func NewConcurrent[K cmp.Ordered](shards int) *Concurrent[K] {
	return shard.New[K](shards)
}

// NewConcurrentSeeded is NewConcurrent with an explicit seed, the symmetric
// counterpart of NewWeightedConcurrent's seed parameter: it anchors the
// structure's NewStream sequence (see the seeding contract in the package
// documentation), so consumers that draw their sampling RNGs from the
// structure — the irsd serving layer does — replay exactly when they
// consume streams and issue queries in a deterministic order (for irsd,
// serialized requests and a single flusher), on any number of cores. The
// seed never influences any sampling distribution.
func NewConcurrentSeeded[K cmp.Ordered](shards int, seed uint64) *Concurrent[K] {
	return shard.NewSeeded[K](shards, seed)
}

// NewConcurrentFromSorted bulk-loads a Concurrent from sorted keys,
// learning equi-depth split points so each shard starts with an equal
// share. Returns ErrUnsorted on unsorted input. Equivalent to
// NewConcurrentFromSortedSeeded with seed 0.
func NewConcurrentFromSorted[K cmp.Ordered](keys []K, shards int) (*Concurrent[K], error) {
	return shard.NewFromSorted(keys, shards)
}

// NewConcurrentFromSortedSeeded is NewConcurrentFromSorted with an explicit
// seed anchoring the structure's NewStream sequence.
func NewConcurrentFromSortedSeeded[K cmp.Ordered](keys []K, shards int, seed uint64) (*Concurrent[K], error) {
	return shard.NewFromSortedSeeded(keys, shards, seed)
}

// NewConcurrentFromSplits returns an empty Concurrent with fixed routing at
// the given sorted split points (len(splits)+1 shards): shard i holds keys
// k with splits[i-1] <= k < splits[i]. The layout is never changed
// automatically; an explicit Rebalance call switches the structure to
// learned equi-depth splits. Returns ErrUnsorted if splits are not sorted.
func NewConcurrentFromSplits[K cmp.Ordered](splits []K) (*Concurrent[K], error) {
	return shard.NewFromSplits(splits)
}
