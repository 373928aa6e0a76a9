package core

import (
	"cmp"
	"slices"

	"github.com/irsgo/irs/internal/chunks"
	"github.com/irsgo/irs/internal/xrand"
)

// Dynamic is the dynamic IRS structure of the paper: a two-level chunked
// sorted list (internal/chunks) sampled by rejection. Space is O(n),
// updates are O(log n) amortized, and a query costs O(log n) to locate the
// range plus O(1) expected per sample, for O(log n + t) expected total.
//
// Dynamic is not safe for concurrent use during updates.
type Dynamic[K cmp.Ordered] struct {
	list *chunks.List[K]
	run  chunks.Run[K] // reused per query; makes steady-state queries allocation-free
}

var _ Sampler[int] = (*Dynamic[int])(nil)

// NewDynamic returns an empty Dynamic sampler.
func NewDynamic[K cmp.Ordered]() *Dynamic[K] {
	return &Dynamic[K]{list: chunks.New[K]()}
}

// NewDynamicFromSorted bulk-loads a Dynamic from sorted keys in O(n).
// The input is not retained. Returns ErrUnsorted on unsorted input.
func NewDynamicFromSorted[K cmp.Ordered](keys []K) (*Dynamic[K], error) {
	l, err := chunks.NewFromSorted(keys)
	if err != nil {
		return nil, ErrUnsorted
	}
	return &Dynamic[K]{list: l}, nil
}

// NewDynamicFromUnsorted bulk-loads a Dynamic from keys in any order,
// sorting a copy first. O(n log n).
func NewDynamicFromUnsorted[K cmp.Ordered](keys []K) *Dynamic[K] {
	own := append([]K(nil), keys...)
	slices.Sort(own)
	d, err := NewDynamicFromSorted(own)
	if err != nil {
		panic("core: sorted copy rejected: " + err.Error())
	}
	return d
}

// Insert adds key (duplicates allowed). O(log n) amortized.
func (d *Dynamic[K]) Insert(key K) { d.list.Insert(key) }

// InsertSorted adds every key of keys, which should be in non-decreasing
// order, by finger search: O(k log(n/k)) comparisons for k keys. The
// structure it builds is the one per-key Insert builds.
func (d *Dynamic[K]) InsertSorted(keys []K) { d.list.InsertSorted(keys) }

// Delete removes one occurrence of key. O(log n) amortized.
func (d *Dynamic[K]) Delete(key K) bool { return d.list.Delete(key) }

// Len returns the number of stored keys.
func (d *Dynamic[K]) Len() int { return d.list.Len() }

// Contains reports whether key is stored at least once. O(log n).
func (d *Dynamic[K]) Contains(key K) bool { return d.list.Contains(key) }

// Count returns the number of keys in [lo, hi]. O(log n).
func (d *Dynamic[K]) Count(lo, hi K) int { return d.list.Count(lo, hi) }

// RankLower returns the number of keys strictly less than key. O(log n).
func (d *Dynamic[K]) RankLower(key K) int { return d.list.RankLower(key) }

// RankUpper returns the number of keys less than or equal to key. O(log n).
func (d *Dynamic[K]) RankUpper(key K) int { return d.list.RankUpper(key) }

// SelectRank returns the key of rank i (0-based, sorted order); it panics
// if i is out of [0, Len()). O(log n). Together with RankLower/RankUpper
// this gives order statistics and quantiles over the live multiset.
func (d *Dynamic[K]) SelectRank(i int) K { return d.list.SelectRank(i) }

// Quantile returns the key at quantile q in [0, 1] (nearest-rank; q is
// clamped into [0, 1]), and false if the structure is empty or q is NaN.
func (d *Dynamic[K]) Quantile(q float64) (K, bool) {
	i, ok := quantileRank(q, d.Len())
	if !ok {
		var zero K
		return zero, false
	}
	return d.list.SelectRank(i), true
}

// Sample returns t independent uniform samples from [lo, hi].
// O(log n + t) expected.
func (d *Dynamic[K]) Sample(lo, hi K, t int, rng *xrand.RNG) ([]K, error) {
	return d.SampleAppend(nil, lo, hi, t, rng)
}

// SampleAppend is Sample appending into dst.
func (d *Dynamic[K]) SampleAppend(dst []K, lo, hi K, t int, rng *xrand.RNG) ([]K, error) {
	return d.SampleRunAppend(&d.run, dst, lo, hi, t, rng)
}

// SampleRunAppend is SampleAppend drawing through caller-owned run scratch
// instead of the receiver's internal scratch. Because the underlying chunked
// list is never mutated by a query, any number of goroutines may call
// SampleRunAppend on the same Dynamic concurrently — each with its own run
// and RNG — provided no update runs at the same time. This is the read-only
// sampling entry point the shard.Backend contract requires: the sharded
// concurrent layer (internal/shard) relies on it to serve readers under a
// shared (non-exclusive) lock, with weighted.Treap.SampleRunAppend as its
// weighted counterpart.
func (d *Dynamic[K]) SampleRunAppend(run *chunks.Run[K], dst []K, lo, hi K, t int, rng *xrand.RNG) ([]K, error) {
	if err := sampleArgsErr(t); err != nil {
		return dst, err
	}
	if t == 0 {
		return dst, nil
	}
	d.list.InitRun(run, lo, hi)
	if run.Empty() {
		return dst, ErrEmptyRange
	}
	return run.SampleAppend(dst, t, rng), nil
}

// SampleProbesAppend is SampleAppend that also accumulates the number of
// rejection probes spent, for the probe-tail experiment (E10).
func (d *Dynamic[K]) SampleProbesAppend(dst []K, lo, hi K, t int, rng *xrand.RNG, probes []int) ([]K, []int, error) {
	if err := sampleArgsErr(t); err != nil {
		return dst, probes, err
	}
	d.list.InitRun(&d.run, lo, hi)
	if t == 0 {
		return dst, probes, nil
	}
	if d.run.Empty() {
		return dst, probes, ErrEmptyRange
	}
	dst, probes = d.run.SampleProbesAppend(dst, probes, t, rng)
	return dst, probes, nil
}

// SampleWithoutReplacement returns min(t, Count(lo, hi)) distinct positions
// uniformly from the range, in random order. For t below half the range
// count it rejects duplicates out of the with-replacement stream (expected
// O(log n + t)); otherwise it reports the range and uses Floyd's algorithm
// (O(log n + |range|), only reached when the output is within a factor two
// of the whole range anyway).
func (d *Dynamic[K]) SampleWithoutReplacement(lo, hi K, t int, rng *xrand.RNG) ([]K, error) {
	if err := sampleArgsErr(t); err != nil {
		return nil, err
	}
	if t == 0 {
		return nil, nil
	}
	c := d.Count(lo, hi)
	if c == 0 {
		return nil, ErrEmptyRange
	}
	if 2*t >= c {
		all := d.list.AppendRange(make([]K, 0, c), lo, hi)
		return floydOver(all, t, rng), nil
	}
	// Fast path for t below half the range count: reject repeat *positions*
	// out of the with-replacement stream. Because 2t <= c, each draw is
	// fresh with probability >= 1/2, so the loop finishes in expected O(t)
	// draws.
	d.list.InitRun(&d.run, lo, hi)
	out := make([]K, 0, t)
	seen := make(map[uint64]struct{}, t)
	for len(out) < t {
		k, p := d.run.SamplePos(rng)
		if _, dup := seen[p]; dup {
			continue
		}
		seen[p] = struct{}{}
		out = append(out, k)
	}
	return out, nil
}

// floydOver draws min(t, len(all)) distinct positions from all, in random
// order, using Floyd's algorithm. It permutes (and may return) all.
func floydOver[K cmp.Ordered](all []K, t int, rng *xrand.RNG) []K {
	if t >= len(all) {
		rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
		return all
	}
	out := make([]K, 0, t)
	chosen := make(map[int]struct{}, t)
	m := len(all)
	for j := m - t; j < m; j++ {
		r := int(rng.Uint64n(uint64(j) + 1))
		if _, dup := chosen[r]; dup {
			r = j
		}
		chosen[r] = struct{}{}
		out = append(out, all[r])
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// Footprint estimates resident bytes (slice capacities plus indexes).
func (d *Dynamic[K]) Footprint() int64 { return d.list.Footprint() }

// GeometryStats exposes the underlying chunk geometry for tests and
// experiments.
func (d *Dynamic[K]) GeometryStats() chunks.Stats { return d.list.GeometryStats() }

// AppendRange appends all keys in [lo, hi] in sorted order. O(log n + out).
func (d *Dynamic[K]) AppendRange(dst []K, lo, hi K) []K {
	return d.list.AppendRange(dst, lo, hi)
}

// AppendKeys appends every stored key in sorted order. O(n).
func (d *Dynamic[K]) AppendKeys(dst []K) []K {
	return d.list.AppendKeys(dst)
}

// Validate checks internal invariants (O(n); for tests).
func (d *Dynamic[K]) Validate() error { return d.list.Validate() }
