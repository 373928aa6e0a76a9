package core

import (
	"cmp"
	"slices"

	"github.com/irsgo/irs/internal/chunks"
	"github.com/irsgo/irs/internal/xrand"
)

// Static is the static IRS structure: a sorted array. A query locates the
// rank interval of [lo, hi] with two binary searches (the "predecessor
// search" term of the paper's O(Pred(n) + t) bound) and then draws each
// sample with one bounded random integer — O(1) per sample, worst case.
//
// Static is immutable after construction and therefore safe for concurrent
// readers, provided each goroutine uses its own RNG.
type Static[K cmp.Ordered] struct {
	keys []K
}

// NewStatic builds a Static from keys in any order. The input is copied and
// sorted; construction is O(n log n).
func NewStatic[K cmp.Ordered](keys []K) *Static[K] {
	screenNaN(keys)
	own := append([]K(nil), keys...)
	slices.Sort(own)
	return &Static[K]{keys: own}
}

// NewStaticFromSorted builds a Static from already-sorted keys in O(n).
// The input slice is copied, not retained. Returns ErrUnsorted if keys are
// not in non-decreasing order or hold a NaN.
func NewStaticFromSorted[K cmp.Ordered](keys []K) (*Static[K], error) {
	if !chunks.IsSorted(keys) {
		return nil, ErrUnsorted
	}
	return &Static[K]{keys: append([]K(nil), keys...)}, nil
}

// Len returns the number of stored keys.
func (s *Static[K]) Len() int { return len(s.keys) }

// At returns the key of rank i (0-based in sorted order).
func (s *Static[K]) At(i int) K { return s.keys[i] }

// rankRange returns the half-open rank interval [a, b) of keys in [lo, hi].
func (s *Static[K]) rankRange(lo, hi K) (int, int) {
	if hi < lo {
		return 0, 0
	}
	a, _ := slices.BinarySearch(s.keys, lo)
	// First index with key > hi: search for the successor position.
	b, found := slices.BinarySearch(s.keys, hi)
	if found {
		// Advance past duplicates of hi.
		for b < len(s.keys) && s.keys[b] == hi {
			b++
		}
	}
	if b < a {
		b = a
	}
	return a, b
}

// Count returns the number of keys in [lo, hi]. O(log n).
func (s *Static[K]) Count(lo, hi K) int {
	a, b := s.rankRange(lo, hi)
	return b - a
}

// RankLower returns the number of keys strictly less than key. O(log n).
func (s *Static[K]) RankLower(key K) int {
	a, _ := slices.BinarySearch(s.keys, key)
	return a
}

// RankUpper returns the number of keys less than or equal to key. O(log n).
func (s *Static[K]) RankUpper(key K) int {
	b, found := slices.BinarySearch(s.keys, key)
	if found {
		for b < len(s.keys) && s.keys[b] == key {
			b++
		}
	}
	return b
}

// Quantile returns the key at quantile q in [0, 1] (nearest-rank; q is
// clamped into [0, 1]), and false if the structure is empty or q is NaN.
func (s *Static[K]) Quantile(q float64) (K, bool) {
	i, ok := quantileRank(q, len(s.keys))
	if !ok {
		var zero K
		return zero, false
	}
	return s.keys[i], true
}

// Sample returns t independent uniform samples (with replacement) from the
// keys in [lo, hi]. O(log n + t) worst case.
func (s *Static[K]) Sample(lo, hi K, t int, rng *xrand.RNG) ([]K, error) {
	return s.SampleAppend(nil, lo, hi, t, rng)
}

// SampleAppend is Sample appending into dst.
func (s *Static[K]) SampleAppend(dst []K, lo, hi K, t int, rng *xrand.RNG) ([]K, error) {
	if err := sampleArgsErr(t); err != nil {
		return dst, err
	}
	if t == 0 {
		return dst, nil
	}
	a, b := s.rankRange(lo, hi)
	if b == a {
		return dst, ErrEmptyRange
	}
	span := uint64(b - a)
	for i := 0; i < t; i++ {
		dst = append(dst, s.keys[a+int(rng.Uint64n(span))])
	}
	return dst, nil
}

// SampleWithoutReplacement returns min(t, Count(lo, hi)) distinct positions
// sampled uniformly from the range, in uniformly random order, using
// Floyd's algorithm — O(log n + t) time and O(t) extra space regardless of
// the range size. "Distinct" refers to positions: duplicate key values may
// still appear if the multiset stores them multiple times.
func (s *Static[K]) SampleWithoutReplacement(lo, hi K, t int, rng *xrand.RNG) ([]K, error) {
	if err := sampleArgsErr(t); err != nil {
		return nil, err
	}
	if t == 0 {
		return nil, nil
	}
	a, b := s.rankRange(lo, hi)
	m := b - a
	if m == 0 {
		return nil, ErrEmptyRange
	}
	if t >= m {
		// The whole range, in random order.
		out := append([]K(nil), s.keys[a:b]...)
		rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
		return out, nil
	}
	// Floyd's algorithm over ranks [0, m).
	chosen := make(map[int]struct{}, t)
	out := make([]K, 0, t)
	for j := m - t; j < m; j++ {
		r := int(rng.Uint64n(uint64(j) + 1))
		if _, dup := chosen[r]; dup {
			r = j
		}
		chosen[r] = struct{}{}
		out = append(out, s.keys[a+r])
	}
	// Floyd's set is uniform but its generation order is not; shuffle so
	// callers can rely on exchangeability.
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out, nil
}
