package server

import (
	"cmp"
	"sync"

	"github.com/irsgo/irs/internal/shard"
	"github.com/irsgo/irs/internal/weighted"
	"github.com/irsgo/irs/internal/xrand"
)

// Item is one element of an insert or update request: a key plus a
// sampling weight — the engine's weighted.Item, which the WAL stores as-is.
// Unweighted datasets route and store the key and ignore the weight (every
// key has unit mass); weighted datasets validate it with the usual rules
// (non-negative, finite).
type Item[K cmp.Ordered] = weighted.Item[K]

// Dataset is the backend surface a Core serves: exactly the slice of
// irs.Concurrent / irs.WeightedConcurrent the serving layer needs, so tests
// can substitute instrumented fakes. Implementations must be safe for any
// number of concurrent goroutines (the concurrent structures are), and
// SampleManyStatsAppend must answer every query in a batch against one
// consistent snapshot with the sampling contract intact (uniform or
// weight-proportional, mutually independent; internal/split's package
// comment carries the argument) — the property request coalescing inherits.
type Dataset[K cmp.Ordered] interface {
	// SampleManyStatsAppend answers a batch of range-sampling queries into
	// caller-owned storage — the serving hot path: samples append to dst,
	// per-query boundaries append to starts (len(queries)+1 of them), so
	// queries[i]'s samples occupy dst[starts[i]:starts[i+1]] and an empty
	// segment marks a range with no sampling mass; stats[i] (stats is nil
	// or len(queries) long) is set to queries[i]'s in-range (count, mass),
	// read under the same locks as its samples. Steady-state calls must
	// not allocate once the buffers have warmed up.
	SampleManyStatsAppend(dst []K, starts []int, queries []shard.Query[K], stats []shard.QueryStats, rng *xrand.RNG) ([]K, []int, error)
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
	// ExportItems hands every stored item to visit in key order, in blocks
	// of bounded size that visit must not retain (unweighted datasets
	// report unit weights), stopping at the first error visit returns. It
	// is a consistent point-in-time view: writers wait until it returns,
	// readers are unaffected. This is the stream a snapshot encodes; its
	// transient memory does not grow with the dataset.
	ExportItems(visit func(block []Item[K]) error) error
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
// embedded structure's own SampleManyStatsAppend, RangeStats, KeyBounds, Len,
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

// exportBlock is the number of items an unweighted export hands over per
// visit call.
const exportBlock = 256

// ExportItems gathers the engine's chunk-sized key blocks into one
// exportBlock buffer of unit-weight items.
func (d *unweightedDataset[K]) ExportItems(visit func(block []Item[K]) error) error {
	block := make([]Item[K], 0, exportBlock)
	err := d.VisitItems(func(keys []K) error {
		for _, k := range keys {
			block = append(block, Item[K]{Key: k, Weight: 1})
			if len(block) == exportBlock {
				if err := visit(block); err != nil {
					return err
				}
				block = block[:0]
			}
		}
		return nil
	})
	if err == nil && len(block) > 0 {
		err = visit(block)
	}
	return err
}

func (d *unweightedDataset[K]) DeleteKeys(keys []K) int { return d.DeleteBatch(keys) }
func (d *unweightedDataset[K]) Weighted() bool          { return false }

// weightedDataset adapts *shard.WeightedConcurrent (= irs.WeightedConcurrent)
// the same way. Items are the engine's own element, so InsertItems hands
// them straight to InsertBatch (which copies into its own pooled buffer).
type weightedDataset[K cmp.Ordered] struct {
	*shard.WeightedConcurrent[K]
}

// NewWeightedDataset wraps a WeightedConcurrent as a servable Dataset.
func NewWeightedDataset[K cmp.Ordered](w *shard.WeightedConcurrent[K]) Dataset[K] {
	return &weightedDataset[K]{WeightedConcurrent: w}
}

func (d *weightedDataset[K]) InsertItems(items []Item[K]) error { return d.InsertBatch(items) }

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

// ExportItems streams the treaps' item blocks as they are.
func (d *weightedDataset[K]) ExportItems(visit func(block []Item[K]) error) error {
	return d.VisitItems(visit)
}

func (d *weightedDataset[K]) DeleteKeys(keys []K) int { return d.DeleteBatch(keys) }
func (d *weightedDataset[K]) Weighted() bool          { return true }
