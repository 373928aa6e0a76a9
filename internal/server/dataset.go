package server

import (
	"cmp"
	"slices"
	"sync"

	"github.com/irsgo/irs/internal/shard"
	"github.com/irsgo/irs/internal/weighted"
	"github.com/irsgo/irs/internal/xrand"
)

// Item is one element of an insert request: a key plus a sampling weight.
// Unweighted datasets route and store the key and ignore the weight (every
// key has unit mass); weighted datasets validate it with the usual rules
// (non-negative, finite).
type Item[K cmp.Ordered] struct {
	Key    K       `json:"key"`
	Weight float64 `json:"weight,omitempty"`
}

// Dataset is the backend surface a Core serves: exactly the slice of
// irs.Concurrent / irs.WeightedConcurrent the serving layer needs, so tests
// can substitute instrumented fakes. Implementations must be safe for any
// number of concurrent goroutines (the concurrent structures are), and
// SampleManyAppend must answer every query in a batch against one
// consistent snapshot with the sampling contract intact (uniform or
// weight-proportional, mutually independent; internal/split's package
// comment carries the argument) — the property request coalescing inherits.
type Dataset[K cmp.Ordered] interface {
	// SampleManyAppend answers a batch of range-sampling queries into
	// caller-owned storage — the serving hot path: samples append to dst,
	// per-query boundaries append to starts (len(queries)+1 of them), so
	// queries[i]'s samples occupy dst[starts[i]:starts[i+1]] and an empty
	// segment marks a range with no sampling mass. Steady-state calls must
	// not allocate once the buffers have warmed up.
	SampleManyAppend(dst []K, starts []int, queries []shard.Query[K], rng *xrand.RNG) ([]K, []int, error)
	// InsertItems stores every item. Weights were validated by the Core
	// before submission, so an error here fails the whole merged batch.
	InsertItems(items []Item[K]) error
	// DeleteKeys removes one occurrence of each key, returning how many
	// were present and removed.
	DeleteKeys(keys []K) int
	// UpdateWeights sets the weight of one occurrence of each item's key,
	// returning how many keys were present. The Core gates this path on
	// Weighted() and validates the weights first, so unweighted
	// implementations may simply return 0.
	UpdateWeights(items []Item[K]) int
	// ExportItems appends every stored item in key order — a consistent
	// point-in-time export (unweighted datasets report unit weights). This
	// is the state a snapshot serializes; it pauses writers briefly.
	ExportItems(dst []Item[K]) []Item[K]
	// RangeStats returns the number of keys and the total sampling mass in
	// [lo, hi] (the key count for unweighted datasets, the range's total
	// weight for weighted ones) against one consistent snapshot.
	RangeStats(lo, hi K) (count int, mass float64)
	// KeyBounds returns the smallest and largest stored keys; ok is false
	// when the dataset is empty.
	KeyBounds() (lo, hi K, ok bool)
	// Len returns the number of stored items.
	Len() int
	// Stats returns the structure's topology snapshot.
	Stats() shard.Stats
	// Weighted reports whether samples are weight-proportional.
	Weighted() bool
	// NewStream returns a fresh sampling RNG from the structure's
	// deterministic stream sequence; the serving layer draws the RNGs of
	// its flush workers from it.
	NewStream() *xrand.RNG
}

// unweightedDataset adapts *shard.Concurrent (= irs.Concurrent). The
// embedded structure's own SampleManyAppend, RangeStats, KeyBounds, Len,
// Stats, and NewStream satisfy Dataset as they are; only
// the item-shaped methods need adapting. keyPool recycles the key buffers
// InsertItems strips items into, so the durable insert flush stays
// allocation-free end to end (InsertBatch does not retain its argument).
type unweightedDataset[K cmp.Ordered] struct {
	*shard.Concurrent[K]
	keyPool sync.Pool // *[]K
}

// NewUnweightedDataset wraps a Concurrent as a servable Dataset. Insert
// weights are ignored: every key has unit sampling mass.
func NewUnweightedDataset[K cmp.Ordered](c *shard.Concurrent[K]) Dataset[K] {
	return &unweightedDataset[K]{Concurrent: c}
}

func (d *unweightedDataset[K]) InsertItems(items []Item[K]) error {
	kp, _ := d.keyPool.Get().(*[]K)
	if kp == nil {
		kp = new([]K)
	}
	keys := (*kp)[:0]
	for _, it := range items {
		keys = append(keys, it.Key)
	}
	d.InsertBatch(keys)
	if cap(keys) <= maxRetainedScratch {
		*kp = keys[:0]
		d.keyPool.Put(kp)
	}
	return nil
}

func (d *unweightedDataset[K]) UpdateWeights(items []Item[K]) int { return 0 }

func (d *unweightedDataset[K]) ExportItems(dst []Item[K]) []Item[K] {
	keys := d.AppendKeys(make([]K, 0, d.Len()))
	dst = slices.Grow(dst, len(keys))
	for _, k := range keys {
		dst = append(dst, Item[K]{Key: k, Weight: 1})
	}
	return dst
}

func (d *unweightedDataset[K]) DeleteKeys(keys []K) int { return d.DeleteBatch(keys) }
func (d *unweightedDataset[K]) Weighted() bool          { return false }

// weightedDataset adapts *shard.WeightedConcurrent (= irs.WeightedConcurrent)
// the same way. itemPool recycles the weighted-item buffers InsertItems
// converts into, mirroring unweightedDataset's keyPool.
type weightedDataset[K cmp.Ordered] struct {
	*shard.WeightedConcurrent[K]
	itemPool sync.Pool // *[]weighted.Item[K]
}

// NewWeightedDataset wraps a WeightedConcurrent as a servable Dataset.
func NewWeightedDataset[K cmp.Ordered](w *shard.WeightedConcurrent[K]) Dataset[K] {
	return &weightedDataset[K]{WeightedConcurrent: w}
}

func (d *weightedDataset[K]) InsertItems(items []Item[K]) error {
	wp, _ := d.itemPool.Get().(*[]weighted.Item[K])
	if wp == nil {
		wp = new([]weighted.Item[K])
	}
	witems := (*wp)[:0]
	for _, it := range items {
		witems = append(witems, weighted.Item[K]{Key: it.Key, Weight: it.Weight})
	}
	err := d.InsertBatch(witems)
	if cap(witems) <= maxRetainedScratch {
		*wp = witems[:0]
		d.itemPool.Put(wp)
	}
	return err
}

func (d *weightedDataset[K]) UpdateWeights(items []Item[K]) int {
	n := 0
	for _, it := range items {
		// Weights were validated by the Core before submission.
		ok, err := d.UpdateWeight(it.Key, it.Weight)
		if err == nil && ok {
			n++
		}
	}
	return n
}

func (d *weightedDataset[K]) ExportItems(dst []Item[K]) []Item[K] {
	witems := d.AppendItems(make([]weighted.Item[K], 0, d.Len()))
	dst = slices.Grow(dst, len(witems))
	for _, it := range witems {
		dst = append(dst, Item[K]{Key: it.Key, Weight: it.Weight})
	}
	return dst
}

func (d *weightedDataset[K]) DeleteKeys(keys []K) int { return d.DeleteBatch(keys) }
func (d *weightedDataset[K]) Weighted() bool          { return true }
