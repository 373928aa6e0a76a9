package core

import (
	"cmp"

	"github.com/irsgo/irs/internal/treap"
	"github.com/irsgo/irs/internal/xrand"
)

// TreapSampler is the classical dynamic baseline: an order-statistic treap
// where each sample costs a rank-select descent. Query time is
// O(log n + t·log n); the benchmark suite measures the gap to Dynamic's
// O(log n + t).
type TreapSampler[K cmp.Ordered] struct {
	tree *treap.Tree[K]
}

var _ Sampler[int] = (*TreapSampler[int])(nil)

// NewTreapSampler returns an empty treap-backed sampler. The seed drives
// the treap's internal rebalancing priorities only, not query randomness.
func NewTreapSampler[K cmp.Ordered](seed uint64) *TreapSampler[K] {
	return &TreapSampler[K]{tree: treap.New[K](seed)}
}

// Insert adds key. O(log n) expected. It panics with ErrNaNKey, storing
// nothing, if key is NaN.
func (t *TreapSampler[K]) Insert(key K) {
	if key != key {
		panic(ErrNaNKey)
	}
	t.tree.Insert(key)
}

// Delete removes one occurrence of key. O(log n) expected.
func (t *TreapSampler[K]) Delete(key K) bool { return t.tree.Delete(key) }

// Len returns the number of stored keys.
func (t *TreapSampler[K]) Len() int { return t.tree.Len() }

// Count returns the number of keys in [lo, hi]. O(log n).
func (t *TreapSampler[K]) Count(lo, hi K) int { return t.tree.Count(lo, hi) }

// SampleAppend draws k samples, each via an O(log n) rank-select.
func (t *TreapSampler[K]) SampleAppend(dst []K, lo, hi K, k int, rng *xrand.RNG) ([]K, error) {
	if err := sampleArgsErr(k); err != nil {
		return dst, err
	}
	if k == 0 {
		return dst, nil
	}
	out, ok := t.tree.SampleAppend(dst, lo, hi, k, rng)
	if !ok {
		return dst, ErrEmptyRange
	}
	return out, nil
}

// ReportSampler is the "report, then sample" baseline: a query materializes
// the entire range (the strategy of running a conventional range query and
// sampling its result set) and then draws from the buffer. Query time is
// O(log n + |range| + t) — competitive only when the range is about as
// small as the sample. Updates are delegated to the same chunked list the
// real structure uses, so E6 isolates the query strategies.
type ReportSampler[K cmp.Ordered] struct {
	d   *Dynamic[K]
	buf []K
}

var _ Sampler[int] = (*ReportSampler[int])(nil)

// NewReportSampler returns an empty report-then-sample baseline.
func NewReportSampler[K cmp.Ordered]() *ReportSampler[K] {
	return &ReportSampler[K]{d: NewDynamic[K]()}
}

// NewReportSamplerFromSorted bulk-loads the baseline from sorted keys.
func NewReportSamplerFromSorted[K cmp.Ordered](keys []K) (*ReportSampler[K], error) {
	d, err := NewDynamicFromSorted(keys)
	if err != nil {
		return nil, err
	}
	return &ReportSampler[K]{d: d}, nil
}

// Insert adds key. O(log n) amortized.
func (r *ReportSampler[K]) Insert(key K) { r.d.Insert(key) }

// Delete removes one occurrence of key. O(log n) amortized.
func (r *ReportSampler[K]) Delete(key K) bool { return r.d.Delete(key) }

// Len returns the number of stored keys.
func (r *ReportSampler[K]) Len() int { return r.d.Len() }

// Count returns the number of keys in [lo, hi]. O(log n).
func (r *ReportSampler[K]) Count(lo, hi K) int { return r.d.Count(lo, hi) }

// SampleAppend materializes the range, then samples the buffer.
func (r *ReportSampler[K]) SampleAppend(dst []K, lo, hi K, t int, rng *xrand.RNG) ([]K, error) {
	if err := sampleArgsErr(t); err != nil {
		return dst, err
	}
	if t == 0 {
		return dst, nil
	}
	r.buf = r.d.AppendRange(r.buf[:0], lo, hi)
	if len(r.buf) == 0 {
		return dst, ErrEmptyRange
	}
	span := uint64(len(r.buf))
	for i := 0; i < t; i++ {
		dst = append(dst, r.buf[rng.Uint64n(span)])
	}
	return dst, nil
}
