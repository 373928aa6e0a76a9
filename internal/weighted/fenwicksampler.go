package weighted

import (
	"cmp"

	"github.com/irsgo/irs/internal/fenwick"
	"github.com/irsgo/irs/internal/xrand"
)

// Fenwick is the linear-space weighted sampler with worst-case O(log n) per
// sample: a Fenwick tree over the weights of the sorted keys, sampled by
// inverse-CDF descent. Its distinguishing feature is dynamic *weights*: the
// weight of any stored item can be updated in O(log n) (the key set itself
// stays fixed).
type Fenwick[K cmp.Ordered] struct {
	keys []K
	w    *fenwick.Weights
}

// NewFenwick builds the sampler from items. O(n log n).
func NewFenwick[K cmp.Ordered](items []Item[K]) (*Fenwick[K], error) {
	p, err := prepare(items)
	if err != nil {
		return nil, err
	}
	return &Fenwick[K]{keys: p.keys, w: fenwick.NewWeights(p.weights)}, nil
}

// Len returns the number of stored items.
func (f *Fenwick[K]) Len() int { return len(f.keys) }

// rankRange returns the half-open index interval of keys in [lo, hi].
func (f *Fenwick[K]) rankRange(lo, hi K) (int, int) {
	if hi < lo {
		return 0, 0
	}
	a, b := 0, len(f.keys)
	for a < b {
		m := (a + b) / 2
		if f.keys[m] >= lo {
			b = m
		} else {
			a = m + 1
		}
	}
	lo2, c, d := a, a, len(f.keys)
	for c < d {
		m := (c + d) / 2
		if f.keys[m] > hi {
			d = m
		} else {
			c = m + 1
		}
	}
	if c < lo2 {
		c = lo2
	}
	return lo2, c
}

// Count returns the number of items in [lo, hi].
func (f *Fenwick[K]) Count(lo, hi K) int {
	a, b := f.rankRange(lo, hi)
	return b - a
}

// TotalWeight returns the weight mass in [lo, hi]. O(log n).
func (f *Fenwick[K]) TotalWeight(lo, hi K) float64 {
	a, b := f.rankRange(lo, hi)
	return f.w.RangeSum(a, b)
}

// WeightByRank returns the weight of the item with sorted rank i.
func (f *Fenwick[K]) WeightByRank(i int) float64 { return f.w.Get(i) }

// KeyByRank returns the key with sorted rank i.
func (f *Fenwick[K]) KeyByRank(i int) K { return f.keys[i] }

// SetWeightByRank updates the weight of the item with sorted rank i in
// O(log n). Returns ErrInvalidWeight for a weight ValidWeight rejects.
func (f *Fenwick[K]) SetWeightByRank(i int, weight float64) error {
	if !ValidWeight(weight) {
		return ErrInvalidWeight
	}
	f.w.Set(i, weight)
	return nil
}

// SampleAppend draws t weighted samples, each via an O(log n) inverse-CDF
// descent.
func (f *Fenwick[K]) SampleAppend(dst []K, lo, hi K, t int, rng *xrand.RNG) ([]K, error) {
	if err := sampleArgsErr(t); err != nil {
		return dst, err
	}
	if t == 0 {
		return dst, nil
	}
	a, b := f.rankRange(lo, hi)
	base := f.w.PrefixSum(a)
	total := f.w.PrefixSum(b) - base
	if err := rangeErr(b-a, total); err != nil {
		return dst, err
	}
	for i := 0; i < t; i++ {
		idx := f.w.Select(base + rng.Float64()*total)
		// Floating-point drift can push the selection one slot past either
		// edge; clamp, then step off zero-weight slots (only reachable via
		// drift, never in exact arithmetic).
		if idx < a {
			idx = a
		}
		if idx >= b {
			idx = b - 1
		}
		if f.w.Get(idx) == 0 {
			for idx > a && f.w.Get(idx) == 0 {
				idx--
			}
			for idx < b-1 && f.w.Get(idx) == 0 {
				idx++
			}
		}
		dst = append(dst, f.keys[idx])
	}
	return dst, nil
}
