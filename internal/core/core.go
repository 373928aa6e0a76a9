// Package core implements the independent range sampling (IRS) structures
// of Hu, Qiao, and Tao (PODS 2014) for one-dimensional data, together with
// the classical baselines the paper's bounds are measured against.
//
// The query model: given an inclusive range [lo, hi] and an integer t,
// return t elements of the stored multiset that lie in the range, each
// uniformly distributed over the range contents, mutually independent, and
// independent of every past query's results.
//
// Structures:
//
//   - Static: an immutable sorted array. Query cost O(log n + t) — two
//     binary searches plus O(1) per sample. Also supports
//     without-replacement sampling via Floyd's algorithm at the same cost.
//   - Dynamic: the chunked structure (see internal/chunks) with O(log n)
//     amortized updates and O(log n + t) expected query time. This is the
//     paper's headline contribution.
//   - TreapSampler: baseline paying O(log n) per sample via rank-select on
//     an order-statistic treap.
//   - ReportSampler: baseline that reports the whole range and then samples
//     it, paying O(log n + |range| + t) per query — the "run the range
//     query, then sample the result set" strategy of a conventional DBMS.
//
// All samplers share the Sampler interface so benchmarks and applications
// can swap them freely.
package core

import (
	"cmp"
	"errors"
	"math"

	"github.com/irsgo/irs/internal/xrand"
)

// Errors shared by all samplers.
var (
	// ErrEmptyRange is returned when t > 0 samples are requested from a
	// range that contains no keys.
	ErrEmptyRange = errors.New("irs: query range contains no keys")
	// ErrInvalidCount is returned when a negative sample count is requested.
	ErrInvalidCount = errors.New("irs: negative sample count")
	// ErrUnsorted is returned by FromSorted constructors on unsorted input,
	// which includes input holding a NaN key.
	ErrUnsorted = errors.New("irs: input keys are not sorted")
	// ErrNaNKey rejects a NaN key. NaN has no place in the key order, so a
	// stored NaN would break every search that passes it.
	ErrNaNKey = errors.New("irs: NaN key")
)

// Sampler is the common interface of every dynamic IRS implementation in
// this package. Static implements the query side only. The sharded
// concurrent layer (internal/shard) also conforms, so call sites can swap
// the single-threaded structures for the concurrent one without change.
type Sampler[K cmp.Ordered] interface {
	// Insert adds a key (duplicates allowed).
	Insert(key K)
	// Delete removes one occurrence of key, reporting whether one existed.
	Delete(key K) bool
	// Len returns the number of stored keys.
	Len() int
	// Count returns the number of keys in [lo, hi].
	Count(lo, hi K) int
	// SampleAppend appends t independent uniform samples from [lo, hi] to
	// dst. If the range is empty and t > 0 it returns (dst, ErrEmptyRange).
	SampleAppend(dst []K, lo, hi K, t int, rng *xrand.RNG) ([]K, error)
}

// sampleArgsErr centralizes argument validation shared by samplers.
func sampleArgsErr(t int) error {
	if t < 0 {
		return ErrInvalidCount
	}
	return nil
}

// quantileRank returns the 0-based rank of quantile q among n sorted keys
// (nearest-rank, q clamped to [0, 1]) — the one index computation behind
// Static.Quantile and Dynamic.Quantile. ok is false when n is 0 or q is
// NaN, which has no place in [0, 1].
func quantileRank(q float64, n int) (int, bool) {
	if n == 0 || math.IsNaN(q) {
		return 0, false
	}
	return int(min(max(q, 0), 1) * float64(n-1)), true
}
