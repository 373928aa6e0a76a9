package irs

import (
	"cmp"

	"github.com/irsgo/irs/internal/weighted"
)

// The weighted extension: every key carries a non-negative weight, and
// queries sample keys with probability proportional to weight among the
// range contents. This follows the line of work that extended the PODS 2014
// paper (Afshani–Wei ESA 2017; Afshani–Phillips 2019); DESIGN.md documents
// it as an extension rather than part of the reproduced paper.

// WeightedItem is a key with a non-negative weight. Zero-weight items are
// stored (and counted) but never sampled.
type WeightedItem[K cmp.Ordered] = weighted.Item[K]

// WeightedSampler is the interface shared by all weighted samplers.
type WeightedSampler[K cmp.Ordered] = weighted.Sampler[K]

// Errors returned by the weighted samplers.
var (
	// ErrZeroWeightRange: the range holds keys but their total weight is 0.
	ErrZeroWeightRange = weighted.ErrZeroWeightRange
	// ErrInvalidWeight: a weight was negative, NaN, or above MaxWeight
	// (infinity included).
	ErrInvalidWeight = weighted.ErrInvalidWeight
)

// MaxWeight is the largest admissible weight, 2⁹⁶⁰: below it no range's
// total weight can overflow float64.
const MaxWeight = weighted.MaxWeight

// WeightedSegmentAlias samples in worst-case O(1) per draw after an
// O(log n) query setup, paying O(n log n) space (an alias table per segment
// tree node).
type WeightedSegmentAlias[K cmp.Ordered] = weighted.SegmentAlias[K]

// NewWeightedSegmentAlias builds the O(n log n)-space weighted sampler.
func NewWeightedSegmentAlias[K cmp.Ordered](items []WeightedItem[K]) (*WeightedSegmentAlias[K], error) {
	return weighted.NewSegmentAlias(items)
}

// WeightedBucket is the linear-space weighted sampler: items are grouped
// into factor-two weight classes; queries pay O(C log n) setup for C
// occupied classes (C = O(log U) for weight ratio U) and expected O(1) per
// sample.
type WeightedBucket[K cmp.Ordered] = weighted.Bucket[K]

// NewWeightedBucket builds the linear-space weighted sampler.
func NewWeightedBucket[K cmp.Ordered](items []WeightedItem[K]) (*WeightedBucket[K], error) {
	return weighted.NewBucket(items)
}

// WeightedFenwick is the linear-space weighted sampler with worst-case
// O(log n) per draw and support for dynamic weight updates.
type WeightedFenwick[K cmp.Ordered] = weighted.Fenwick[K]

// NewWeightedFenwick builds the Fenwick-backed weighted sampler.
func NewWeightedFenwick[K cmp.Ordered](items []WeightedItem[K]) (*WeightedFenwick[K], error) {
	return weighted.NewFenwick(items)
}

// WeightedNaiveCDF is the per-query baseline (binary search over the range
// CDF per sample).
type WeightedNaiveCDF[K cmp.Ordered] = weighted.NaiveCDF[K]

// NewWeightedNaiveCDF builds the baseline weighted sampler.
func NewWeightedNaiveCDF[K cmp.Ordered](items []WeightedItem[K]) (*WeightedNaiveCDF[K], error) {
	return weighted.NewNaiveCDF(items)
}

// WeightedTreap is the fully dynamic weighted sampler: O(log n) inserts,
// deletes, and weight updates; O(log n) expected per sample. Not safe for
// any concurrent use (queries restructure the tree internally).
type WeightedTreap[K cmp.Ordered] = weighted.Treap[K]

// NewWeightedTreap returns an empty dynamic weighted sampler; seed drives
// rebalancing only.
func NewWeightedTreap[K cmp.Ordered](seed uint64) *WeightedTreap[K] {
	return weighted.NewTreap[K](seed)
}

// NewWeightedTreapFromItems bulk-inserts items into a new WeightedTreap.
func NewWeightedTreapFromItems[K cmp.Ordered](seed uint64, items []WeightedItem[K]) (*WeightedTreap[K], error) {
	return weighted.NewTreapFromItems(seed, items)
}
