// Package weighted implements weighted independent range sampling (wIRS)
// in one dimension: every stored key carries a non-negative weight, and a
// query over [lo, hi] must return samples whose probability is proportional
// to their weight among the keys in the range.
//
// This is an *extension* relative to the PODS 2014 paper (which is
// unweighted); it follows the direction of the follow-up work by
// Afshani–Wei (ESA 2017) and Afshani–Phillips (2019). Four structures
// realize the classical trade-offs:
//
//   - SegmentAlias — O(n log n) space, O(log n) query setup, worst-case
//     O(1) per sample (alias table per segment-tree node).
//   - Bucket — O(n) space, items partitioned into weight classes within a
//     factor two of each other (the "almost uniform" classes of the
//     literature); O(C log n) setup for C occupied classes
//     (C = O(log U) for weight ratio U) and expected O(1) per sample by
//     rejection inside a class.
//   - Fenwick — O(n) space, O(log n) worst case per sample by inverse-CDF
//     descent; also supports dynamic weight updates.
//   - NaiveCDF — the baseline: materializes the range's cumulative weights
//     per query (O(|range|)), then O(log |range|) per sample.
//
// All samplers validate weights at construction: negative, NaN, or weights
// above MaxWeight (2⁹⁶⁰, infinity included) are rejected; zero weights are
// allowed and never sampled.
package weighted

import (
	"cmp"
	"errors"
	"slices"
	"sort"

	"github.com/irsgo/irs/internal/core"
	"github.com/irsgo/irs/internal/xrand"
)

// Errors returned by the weighted samplers.
var (
	// ErrEmptyRange is returned when the query range contains no keys.
	ErrEmptyRange = errors.New("weighted: query range contains no keys")
	// ErrZeroWeightRange is returned when the range contains keys but their
	// total weight is zero, so no proportional sample exists.
	ErrZeroWeightRange = errors.New("weighted: query range has zero total weight")
	// ErrInvalidCount is returned for negative sample counts.
	ErrInvalidCount = errors.New("weighted: negative sample count")
	// ErrInvalidWeight is returned for a weight ValidWeight rejects:
	// negative, NaN, or above MaxWeight (infinity included).
	ErrInvalidWeight = errors.New("weighted: weight is negative, NaN, or above 2^960")
	// ErrUnsortedItems is returned by FromSorted constructors when the
	// input items are not in non-decreasing key order.
	ErrUnsortedItems = errors.New("weighted: items are not sorted by key")
)

// Item is a weighted key: the one (key, weight) element shared by the
// engines, the serving layer's requests, and the WAL (JSON omits a zero
// weight).
type Item[K cmp.Ordered] struct {
	Key    K       `json:"key"`
	Weight float64 `json:"weight,omitempty"`
}

// MaxWeight is the largest admissible weight, 2⁹⁶⁰. Fewer than 2⁵³ weights
// of at most 2⁹⁶⁰ sum to below 2¹⁰¹³ however the additions round, so no
// range mass, shard mass or alias-table total can overflow float64: an
// infinite mass would make every draw land on the last span, and the
// cross-shard split would fail.
const MaxWeight = 0x1p960

// ValidWeight reports whether w is an admissible weight: in [0, MaxWeight]
// (NaN is rejected because NaN >= 0 is false).
func ValidWeight(w float64) bool { return w >= 0 && w <= MaxWeight }

// Sampler is the interface shared by every weighted IRS implementation.
type Sampler[K cmp.Ordered] interface {
	// Len returns the number of stored items.
	Len() int
	// Count returns the number of items with keys in [lo, hi], including
	// zero-weight items.
	Count(lo, hi K) int
	// TotalWeight returns the sum of weights of items in [lo, hi].
	TotalWeight(lo, hi K) float64
	// SampleAppend appends t independent samples from [lo, hi], each drawn
	// with probability proportional to its weight, to dst.
	SampleAppend(dst []K, lo, hi K, t int, rng *xrand.RNG) ([]K, error)
}

// prepared holds the sorted arrays shared by the static samplers.
type prepared[K cmp.Ordered] struct {
	keys    []K
	weights []float64
	prefix  []float64 // prefix[i] = sum of weights[0:i]
}

// prepare validates, copies, and sorts items by key. O(n log n). A NaN key
// is core.ErrNaNKey.
func prepare[K cmp.Ordered](items []Item[K]) (prepared[K], error) {
	own := append([]Item[K](nil), items...)
	for _, it := range own {
		if !ValidWeight(it.Weight) {
			return prepared[K]{}, ErrInvalidWeight
		}
		if it.Key != it.Key {
			return prepared[K]{}, core.ErrNaNKey
		}
	}
	slices.SortStableFunc(own, func(a, b Item[K]) int { return cmp.Compare(a.Key, b.Key) })
	p := prepared[K]{
		keys:    make([]K, len(own)),
		weights: make([]float64, len(own)),
		prefix:  make([]float64, len(own)+1),
	}
	for i, it := range own {
		p.keys[i] = it.Key
		p.weights[i] = it.Weight
		p.prefix[i+1] = p.prefix[i] + it.Weight
	}
	return p, nil
}

// rankRange returns the half-open index interval of keys in [lo, hi].
func (p *prepared[K]) rankRange(lo, hi K) (int, int) {
	if hi < lo {
		return 0, 0
	}
	a := sort.Search(len(p.keys), func(i int) bool { return p.keys[i] >= lo })
	b := sort.Search(len(p.keys), func(i int) bool { return p.keys[i] > hi })
	if b < a {
		b = a
	}
	return a, b
}

func (p *prepared[K]) count(lo, hi K) int {
	a, b := p.rankRange(lo, hi)
	return b - a
}

func (p *prepared[K]) totalWeight(lo, hi K) float64 {
	a, b := p.rankRange(lo, hi)
	return p.prefix[b] - p.prefix[a]
}

func sampleArgsErr(t int) error {
	if t < 0 {
		return ErrInvalidCount
	}
	return nil
}

// rangeErr classifies an empty or zero-weight range.
func rangeErr(count int, total float64) error {
	if count == 0 {
		return ErrEmptyRange
	}
	if total <= 0 {
		return ErrZeroWeightRange
	}
	return nil
}

// NaiveCDF is the per-query baseline: it recomputes the range's cumulative
// weight array on every query. With the prefix array shared by all static
// samplers the build is O(log n) here; the per-sample cost is a binary
// search over the range, O(log |range|) — and unlike the real structures it
// offers no path to dynamism or better constants. It exists to anchor the
// benchmark shapes.
type NaiveCDF[K cmp.Ordered] struct {
	p prepared[K]
}

// NewNaiveCDF builds the baseline from items. O(n log n).
func NewNaiveCDF[K cmp.Ordered](items []Item[K]) (*NaiveCDF[K], error) {
	p, err := prepare(items)
	if err != nil {
		return nil, err
	}
	return &NaiveCDF[K]{p: p}, nil
}

// Len returns the number of stored items.
func (s *NaiveCDF[K]) Len() int { return len(s.p.keys) }

// Count returns the number of items in [lo, hi].
func (s *NaiveCDF[K]) Count(lo, hi K) int { return s.p.count(lo, hi) }

// TotalWeight returns the weight mass in [lo, hi].
func (s *NaiveCDF[K]) TotalWeight(lo, hi K) float64 { return s.p.totalWeight(lo, hi) }

// SampleAppend draws t weighted samples by inverting the prefix-sum CDF
// with a binary search per sample.
func (s *NaiveCDF[K]) SampleAppend(dst []K, lo, hi K, t int, rng *xrand.RNG) ([]K, error) {
	if err := sampleArgsErr(t); err != nil {
		return dst, err
	}
	if t == 0 {
		return dst, nil
	}
	a, b := s.p.rankRange(lo, hi)
	total := s.p.prefix[b] - s.p.prefix[a]
	if err := rangeErr(b-a, total); err != nil {
		return dst, err
	}
	base := s.p.prefix[a]
	for i := 0; i < t; i++ {
		x := base + rng.Float64()*total
		// First index with prefix[idx+1] > x, i.e. the item whose weight
		// interval contains x.
		idx := sort.Search(b-a, func(j int) bool { return s.p.prefix[a+j+1] > x }) + a
		if idx >= b { // floating-point drift at the upper edge
			idx = b - 1
		}
		for s.p.weights[idx] == 0 && idx > a { // never return zero-weight items
			idx--
		}
		dst = append(dst, s.p.keys[idx])
	}
	return dst, nil
}
