// Package irs implements independent range sampling (IRS) in one dimension,
// reproducing the data structures of "Independent Range Sampling" (Hu, Qiao,
// Tao — PODS 2014) as a production-quality Go library, together with
// weighted sampling extensions from the follow-up literature.
//
// # The problem
//
// Store a multiset of ordered keys so that a query (lo, hi, t) returns t
// elements of the multiset lying in [lo, hi] such that every sample is
// uniformly distributed over the range contents, the t samples are mutually
// independent, and they are independent of the results of all past queries.
// The last property is what separates IRS from "materialize a sample once
// and serve it repeatedly" — repeated queries must keep producing fresh
// randomness, which is what downstream statistics require.
//
// # Structures
//
//   - Static: immutable sorted array; O(n) space, O(log n + t) query,
//     plus O(log n + t) sampling without replacement (Floyd's algorithm).
//   - Dynamic: the paper's dynamic structure; O(n) space, O(log n)
//     amortized Insert/Delete, O(log n + t) expected query.
//   - Concurrent: the sharded, concurrency-safe layer over Dynamic —
//     contiguous key-space shards behind per-shard reader/writer locks,
//     cross-shard queries split by an exact multinomial, and batch entry
//     points (InsertBatch, SampleMany) that amortize lock acquisition.
//   - TreapSampler, ReportSampler: the classical baselines (rank-select at
//     O(log n) per sample; report-then-sample at O(|range|) per query),
//     provided for comparison and for applications with tiny ranges.
//   - WeightedSegmentAlias, WeightedBucket, WeightedFenwick,
//     WeightedNaiveCDF, WeightedTreap: the weighted extension — samples
//     drawn with probability proportional to per-key weights (see
//     weighted.go); WeightedTreap is the fully dynamic member.
//   - WeightedConcurrent: the sharded, concurrency-safe layer over
//     WeightedTreap — the same engine as Concurrent, with the cross-shard
//     multinomial split proportional to per-shard range weight (see
//     weightedconcurrent.go).
//
// # Randomness and concurrency
//
// Every sampling method takes an explicit *RNG. Deterministic seeding makes
// experiments reproducible, and statistical tests can replay exact streams.
// An *RNG must never be shared between goroutines; derive an independent
// per-goroutine stream with RNG.Split.
//
// The seeding contract: a structure's seed parameter never influences any
// sampling distribution — every query is exactly uniform (or exactly
// weight-proportional) for every seed. What a seed determines is
// reproducibility plumbing:
//
//   - treap rebalancing priorities (weighted structures), which affect tree
//     shape and therefore only running time;
//   - the NewStream sequence of Concurrent and WeightedConcurrent: the i-th
//     NewStream call returns the i-th generator of a fixed seed-determined
//     sequence, so consumers that draw their RNGs from the structure — such
//     as the irsd serving layer — replay sampling exactly for a fixed seed
//     when streams are consumed and queries issued in a deterministic
//     order (for irsd: serialized requests, single flusher).
//
// Fixed-seed replay does not depend on the core count: no sampler starts
// goroutines of its own, so every query draws in order on the calling
// goroutine from the RNG it was given, and one RNG state yields the same
// samples at any GOMAXPROCS.
//
// NewConcurrentSeeded and NewConcurrentFromSortedSeeded are the seeded
// unweighted constructors, symmetric with NewWeightedConcurrent's seed
// parameter; the unseeded constructors are the seed-0 special case.
//
// The concurrency contract has three tiers:
//
//   - Static and the other immutable structures (the static weighted
//     samplers included) are safe for any number of concurrent readers,
//     each using its own RNG.
//   - Dynamic, TreapSampler, ReportSampler, and WeightedTreap are
//     single-writer: no access of any kind may run concurrently with an
//     Insert, Delete, or UpdateWeight. Between mutations, their query
//     paths that draw through caller-owned scratch (Dynamic.SampleRunAppend
//     and the WeightedTreap run API in internal/weighted) admit any number
//     of concurrent readers — the property the sharded layer builds on.
//   - Concurrent and WeightedConcurrent are fully thread-safe: inserts,
//     deletes, weight updates, counts, and sampling queries may all run
//     simultaneously from any number of goroutines, and their statistical
//     guarantees (per-sample uniformity or weight-proportionality,
//     independence) hold for every value returned under any interleaving,
//     because each query measures and draws against one locked snapshot.
//
// Example:
//
//	s := irs.NewStatic([]float64{3.1, 1.4, 5.9, 2.6})
//	rng := irs.NewRNG(42)
//	samples, err := s.Sample(2.0, 6.0, 3, rng)
package irs

import (
	"cmp"
	"io"

	"github.com/irsgo/irs/internal/core"
	"github.com/irsgo/irs/internal/xrand"
)

// RNG is the deterministic pseudo-random generator consumed by every
// sampler (xoshiro256++). Create one with NewRNG; derive independent
// per-goroutine streams with Split.
type RNG = xrand.RNG

// NewRNG returns an RNG seeded deterministically from seed.
func NewRNG(seed uint64) *RNG { return xrand.New(seed) }

// Errors returned by samplers.
var (
	// ErrEmptyRange: t > 0 samples were requested from a range holding no
	// keys.
	ErrEmptyRange = core.ErrEmptyRange
	// ErrInvalidCount: a negative sample count was requested.
	ErrInvalidCount = core.ErrInvalidCount
	// ErrUnsorted: a FromSorted constructor received unsorted keys, or a
	// NaN key.
	ErrUnsorted = core.ErrUnsorted
	// ErrNaNKey: an insert carried a NaN key. The weighted concurrent
	// inserts return it; Concurrent.Insert and InsertBatch, which have no
	// error result, panic with it.
	ErrNaNKey = core.ErrNaNKey
)

// Sampler is the interface shared by all dynamic unweighted samplers.
type Sampler[K cmp.Ordered] = core.Sampler[K]

// Static is the immutable IRS structure: a sorted array answering sampling
// queries in O(log n + t) worst case, with or without replacement.
type Static[K cmp.Ordered] = core.Static[K]

// NewStatic builds a Static from keys in any order (copied and sorted).
func NewStatic[K cmp.Ordered](keys []K) *Static[K] { return core.NewStatic(keys) }

// NewStaticFromSorted builds a Static from non-decreasing keys in O(n).
func NewStaticFromSorted[K cmp.Ordered](keys []K) (*Static[K], error) {
	return core.NewStaticFromSorted(keys)
}

// Dynamic is the paper's dynamic IRS structure: O(n) space, O(log n)
// amortized updates, O(log n + t) expected queries.
type Dynamic[K cmp.Ordered] = core.Dynamic[K]

// NewDynamic returns an empty Dynamic sampler.
func NewDynamic[K cmp.Ordered]() *Dynamic[K] { return core.NewDynamic[K]() }

// NewDynamicFromSorted bulk-loads a Dynamic from sorted keys in O(n).
func NewDynamicFromSorted[K cmp.Ordered](keys []K) (*Dynamic[K], error) {
	return core.NewDynamicFromSorted(keys)
}

// NewDynamicFromUnsorted bulk-loads a Dynamic from keys in any order.
func NewDynamicFromUnsorted[K cmp.Ordered](keys []K) *Dynamic[K] {
	return core.NewDynamicFromUnsorted(keys)
}

// TreapSampler is the classical baseline paying O(log n) per sample
// (rank-select on an order-statistic treap).
type TreapSampler[K cmp.Ordered] = core.TreapSampler[K]

// NewTreapSampler returns an empty treap-backed baseline sampler. The seed
// drives tree rebalancing only.
func NewTreapSampler[K cmp.Ordered](seed uint64) *TreapSampler[K] {
	return core.NewTreapSampler[K](seed)
}

// ReportSampler is the report-then-sample baseline: O(log n + |range| + t)
// per query. Competitive only when ranges are about as small as t.
type ReportSampler[K cmp.Ordered] = core.ReportSampler[K]

// NewReportSampler returns an empty report-then-sample baseline.
func NewReportSampler[K cmp.Ordered]() *ReportSampler[K] {
	return core.NewReportSampler[K]()
}

// NewReportSamplerFromSorted bulk-loads the baseline from sorted keys.
func NewReportSamplerFromSorted[K cmp.Ordered](keys []K) (*ReportSampler[K], error) {
	return core.NewReportSamplerFromSorted(keys)
}

// ErrBadSnapshot is returned by LoadStatic and LoadDynamic for streams
// that are not valid snapshots of the requested structure and key type.
var ErrBadSnapshot = core.ErrBadSnapshot

// LoadStatic reads a snapshot written by Static.Save.
func LoadStatic[K cmp.Ordered](r io.Reader) (*Static[K], error) {
	return core.LoadStatic[K](r)
}

// LoadDynamic reads a snapshot written by Dynamic.Save, rebuilding the
// structure in O(n).
func LoadDynamic[K cmp.Ordered](r io.Reader) (*Dynamic[K], error) {
	return core.LoadDynamic[K](r)
}
