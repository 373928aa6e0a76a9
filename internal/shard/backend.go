package shard

import (
	"cmp"

	"github.com/irsgo/irs/internal/xrand"
)

// Run is backend-specific per-query sampling scratch, opaque to the engine:
// Prepare fills it with one shard's share of a range and Draw samples from
// it. A Run is owned by exactly one in-flight query at a time; the engine
// pools one per overlapping shard inside its query scratch, so steady-state
// queries do not allocate. Concrete types are *chunks.Run[K] for the
// unweighted backend and *weighted.TreapRun[K] for the weighted one.
type Run any

// Backend is the single-shard dynamic structure the sharding engine is
// generic over. A backend stores items of type I, each carrying a routing
// key of type K (for the unweighted instantiation I = K); the engine owns
// all locking, so a backend only needs plain single-threaded updates plus
// read-only queries.
//
// The contract that makes cross-shard sampling exact, with each range
// searched once per shard:
//
//   - Prepare finds the backend's share of [lo, hi] — one search per range
//     boundary — fills a run with it, and reports the in-range item count
//     and sampling mass (the key count for unweighted backends, the total
//     weight for weighted ones). The engine splits a query's t samples over
//     shards with a multinomial proportional to mass.
//   - Draw samples from a prepared run only, each sample with probability
//     proportional to its mass among the backend's own [lo, hi] contents.
//     The engine calls it only on a run with positive mass and a nonzero
//     allocation, under the same lock as Prepare.
//   - Both are read-only (no tree rotations, no internal scratch), so many
//     goroutines holding a shared lock can prepare and draw from one shard
//     concurrently through their own runs.
type Backend[K cmp.Ordered, I any] interface {
	// Insert stores one item (duplicate keys allowed). Items reaching a
	// backend were validated by the engine's exported wrappers.
	Insert(item I)
	// InsertSorted stores every item of a batch sorted by key, as per-item
	// Insert calls in order would.
	InsertSorted(items []I)
	// Delete removes one occurrence of key, reporting whether one existed.
	Delete(key K) bool
	// Len returns the number of stored items.
	Len() int
	// Contains reports whether key is stored at least once.
	Contains(key K) bool
	// Prepare fills run with [lo, hi] and returns the in-range item count
	// and sampling mass.
	Prepare(run Run, lo, hi K) (count int, mass float64)
	// Draw appends t mass-proportional samples from a run Prepare filled
	// with positive mass.
	Draw(run Run, dst []K, t int, rng *xrand.RNG) []K
	// AppendRange appends the keys in [lo, hi] in sorted order.
	AppendRange(dst []K, lo, hi K) []K
	// VisitItems hands every stored item to visit in key order, in blocks
	// visit must not modify or retain, stopping at the first error — the
	// one export path: snapshots encode the blocks as they come, and
	// Rebalance and AppendAllItems append them.
	VisitItems(visit func(block []I) error) error
	// MinKey and MaxKey return the smallest and largest stored keys. Only
	// called when Len() > 0 (shard-interval validation).
	MinKey() K
	MaxKey() K
	// Validate checks the backend's internal invariants (tests).
	Validate() error
}

// backendOps bundles the per-instantiation hooks the engine needs beyond
// the Backend interface: construction (which an interface cannot express),
// key extraction for routing, and the instantiation's error vocabulary.
type backendOps[K cmp.Ordered, I any, B Backend[K, I]] struct {
	// new returns an empty backend (one fresh shard).
	new func() B
	// fromSorted bulk-loads a backend from items sorted by key. The engine
	// only calls it with slices it sorted (or verified) itself.
	fromSorted func(items []I) B
	// keyOf extracts an item's routing key.
	keyOf func(I) K
	// sortItems sorts a batch by key (stably, so equal-key items keep
	// their caller-supplied order).
	sortItems func([]I)
	// newRun returns fresh scratch for Prepare and Draw.
	newRun func() Run
	// zeroMass is returned when a sampled range holds items but no mass
	// (weighted: all weights zero). Unreachable for unit-mass backends.
	zeroMass error
}
