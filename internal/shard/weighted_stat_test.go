package shard

import (
	"math"
	"testing"

	"github.com/irsgo/irs/internal/core"
	"github.com/irsgo/irs/internal/stats"
	"github.com/irsgo/irs/internal/weighted"
	"github.com/irsgo/irs/internal/xrand"
)

// The distributional contract of the weighted sharded sampler: splitting a
// query's t samples over shards by a multinomial proportional to per-shard
// range *weight* must leave each sample exactly weight-proportional over
// the whole range. checkSplitExact (exact_test.go) checks the shard law
// exactly; inside a shard the treap's law is exact on its own
// (internal/weighted's TestTreapRunExact).

// makeWeightedItems builds a deterministic dataset with duplicate keys,
// zero weights, and weight ratios up to ~e^6.
func makeWeightedItems(n, keySpan int, seed uint64) []weighted.Item[int] {
	r := xrand.New(seed)
	items := make([]weighted.Item[int], n)
	for i := range items {
		w := math.Exp(r.Float64() * 6)
		if r.Bernoulli(0.05) {
			w = 0
		}
		items[i] = weighted.Item[int]{Key: r.Intn(keySpan), Weight: w}
	}
	return items
}

// TestWeightedConcurrentMatchesSegmentAlias is the headline check: sampling
// a range that spans several shards (boundary shards partially covered)
// draws each shard with its weight share exactly, and the engine's count
// and weight agree with the static weighted reference on the same items.
func TestWeightedConcurrentMatchesSegmentAlias(t *testing.T) {
	items := makeWeightedItems(25_000, 1200, 301)
	wc, err := NewWeightedFromItems(items, 6, 302)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := weighted.NewSegmentAlias(items)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := 150, 950
	if got, want := wc.TotalWeight(lo, hi), ref.TotalWeight(lo, hi); math.Abs(got-want) > 1e-6*want {
		t.Fatalf("TotalWeight = %v, want %v", got, want)
	}
	if got, want := wc.Count(lo, hi), ref.Count(lo, hi); got != want {
		t.Fatalf("Count = %d, want %d", got, want)
	}
	checkShards(t, "weighted", &wc.engine, items, itemWeight, []int{0, lo, hi, 1199})
}

// TestWeightedSampleManyMatchesSegmentAlias: the batch path, five shards.
func TestWeightedSampleManyMatchesSegmentAlias(t *testing.T) {
	items := makeWeightedItems(20_000, 1000, 307)
	wc, err := NewWeightedFromItems(items, 5, 308)
	if err != nil {
		t.Fatal(err)
	}
	checkShards(t, "weighted batch", &wc.engine, items, itemWeight, []int{80, 870})
}

// TestWeightedParallelSampleMatchesSegmentAlias: a range spread over all
// eight shards.
func TestWeightedParallelSampleMatchesSegmentAlias(t *testing.T) {
	items := makeWeightedItems(20_000, 1000, 311)
	wc, err := NewWeightedFromItems(items, 8, 312)
	if err != nil {
		t.Fatal(err)
	}
	checkShards(t, "weighted, eight shards", &wc.engine, items, itemWeight, []int{10, 990})
}

// TestWeightedIndependenceAcrossQueries repeats one query and checks the
// paired samples are uncorrelated — the defining IRS property.
func TestWeightedIndependenceAcrossQueries(t *testing.T) {
	items := makeWeightedItems(15_000, 900, 317)
	wc, err := NewWeightedFromItems(items, 5, 318)
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(319)
	lo, hi := 50, 850
	const pairs = 20_000
	xs := make([]float64, pairs)
	ys := make([]float64, pairs)
	for i := 0; i < pairs; i++ {
		a, err := wc.Sample(lo, hi, 1, rng)
		if err != nil {
			t.Fatal(err)
		}
		b, err := wc.Sample(lo, hi, 1, rng)
		if err != nil {
			t.Fatal(err)
		}
		xs[i], ys[i] = float64(a[0]), float64(b[0])
	}
	r, err := stats.PearsonCorr(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	bound := 4.5 / math.Sqrt(pairs)
	if r > bound || r < -bound {
		t.Fatalf("repeat-query correlation %.4f exceeds %.4f", r, bound)
	}
}

// TestWeightedUpdateWeightShiftsDistribution: a live weight update must be
// reflected exactly in subsequent samples and totals.
func TestWeightedUpdateWeightShiftsDistribution(t *testing.T) {
	wc := NewWeighted[int](4, 331)
	for k := 0; k < 100; k++ {
		if err := wc.Insert(k, 1); err != nil {
			t.Fatal(err)
		}
	}
	ok, err := wc.UpdateWeight(7, 97)
	if err != nil || !ok {
		t.Fatalf("UpdateWeight: %v %v", ok, err)
	}
	if got := wc.TotalWeight(0, 99); math.Abs(got-196) > 1e-9 {
		t.Fatalf("TotalWeight = %v, want 196", got)
	}
	// The update moved key 7's shard's share to 97/196 exactly (within
	// the treap, key 7 then has 97 of its shard's weight; exact_test.go in
	// internal/weighted).
	items := make([]weighted.Item[int], 100)
	for k := range items {
		items[k] = weighted.Item[int]{Key: k, Weight: 1}
	}
	items[7].Weight = 97
	checkShards(t, "after update", &wc.engine, items, itemWeight, []int{0, 7, 99})
	rng := xrand.New(332)
	// Zeroing removes the key from sampling entirely.
	if ok, err := wc.UpdateWeight(7, 0); err != nil || !ok {
		t.Fatalf("zeroing: %v %v", ok, err)
	}
	out, err := wc.Sample(0, 99, 20_000, rng)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range out {
		if k == 7 {
			t.Fatal("sampled zero-weight key after update")
		}
	}
}

// TestWeightedErrors pins the error vocabulary of the weighted layer.
func TestWeightedErrors(t *testing.T) {
	wc := NewWeighted[int](2, 337)
	rng := xrand.New(338)
	if _, err := wc.Sample(0, 10, 3, rng); err != core.ErrEmptyRange {
		t.Fatalf("empty sample: err = %v", err)
	}
	if _, err := wc.Sample(0, 10, -1, rng); err != core.ErrInvalidCount {
		t.Fatalf("negative t: err = %v", err)
	}
	if err := wc.Insert(1, -1); err != weighted.ErrInvalidWeight {
		t.Fatalf("negative weight: err = %v", err)
	}
	if err := wc.Insert(1, math.NaN()); err != weighted.ErrInvalidWeight {
		t.Fatalf("NaN weight: err = %v", err)
	}
	if err := wc.InsertBatch([]weighted.Item[int]{{Key: 1, Weight: 1}, {Key: 2, Weight: math.Inf(1)}}); err != weighted.ErrInvalidWeight {
		t.Fatalf("batch bad weight: err = %v", err)
	}
	if wc.Len() != 0 {
		t.Fatalf("failed batch inserted items: Len = %d", wc.Len())
	}
	if _, err := wc.UpdateWeight(1, -2); err != weighted.ErrInvalidWeight {
		t.Fatalf("bad update weight: err = %v", err)
	}
	// A nonempty range whose keys all carry zero weight.
	if err := wc.InsertBatch([]weighted.Item[int]{{Key: 5, Weight: 0}, {Key: 6, Weight: 0}}); err != nil {
		t.Fatal(err)
	}
	if _, err := wc.Sample(5, 6, 1, rng); err != weighted.ErrZeroWeightRange {
		t.Fatalf("zero-weight range: err = %v", err)
	}
	// In a SampleMany batch the same query yields nil instead of failing.
	results, err := wc.SampleMany([]Query[int]{{Lo: 5, Hi: 6, T: 4}}, rng)
	if err != nil || results[0] != nil {
		t.Fatalf("zero-weight batch query: %v %v", results, err)
	}
	if _, err := wc.SampleMany([]Query[int]{{Lo: 5, Hi: 6, T: -1}}, rng); err != core.ErrInvalidCount {
		t.Fatalf("negative batch T: err = %v", err)
	}
	// Constructor validation.
	if _, err := NewWeightedFromItems([]weighted.Item[int]{{Key: 1, Weight: -3}}, 2, 339); err != weighted.ErrInvalidWeight {
		t.Fatalf("FromItems bad weight: err = %v", err)
	}
	if _, err := NewWeightedFromSplits([]int{5, 3}, 340); err != weighted.ErrUnsortedItems {
		t.Fatalf("FromSplits unsorted: err = %v", err)
	}
}

// TestWeightedBatchAndRebalance exercises batch updates, the explicit
// rebalance, and snapshot exports against a model.
func TestWeightedBatchAndRebalance(t *testing.T) {
	items := makeWeightedItems(12_000, 700, 341)
	wc, err := NewWeightedFromItems(items, 4, 342)
	if err != nil {
		t.Fatal(err)
	}
	wantW := 0.0
	for _, it := range items {
		wantW += it.Weight
	}
	if got := wc.TotalWeight(0, 700); math.Abs(got-wantW) > 1e-6*wantW {
		t.Fatalf("TotalWeight = %v, want %v", got, wantW)
	}
	if err := wc.Validate(); err != nil {
		t.Fatal(err)
	}
	// Delete a slice of the items, rebalance, and re-check the totals.
	victims := make([]int, 0, 3000)
	seen := map[int]int{}
	for _, it := range items {
		if it.Key%5 == 0 && seen[it.Key] == 0 {
			seen[it.Key]++
			victims = append(victims, it.Key)
		}
	}
	// Compute the removed weight the same way the structure resolves
	// duplicate deletes: one occurrence per victim key — but occurrences of
	// a key may carry different weights, so track via AppendItems instead.
	before := wc.AppendItems(nil)
	if got := wc.DeleteBatch(victims); got != len(victims) {
		t.Fatalf("DeleteBatch removed %d, want %d", got, len(victims))
	}
	after := wc.AppendItems(nil)
	if len(after) != len(before)-len(victims) {
		t.Fatalf("AppendItems: %d items, want %d", len(after), len(before)-len(victims))
	}
	beforeW, afterW := 0.0, 0.0
	for _, it := range before {
		beforeW += it.Weight
	}
	for _, it := range after {
		afterW += it.Weight
	}
	removedW := beforeW - afterW
	if got := wc.TotalWeight(0, 700); math.Abs(got-(wantW-removedW)) > 1e-6*wantW {
		t.Fatalf("TotalWeight after delete = %v, want %v", got, wantW-removedW)
	}
	wc.Rebalance()
	if err := wc.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := wc.TotalWeight(0, 700); math.Abs(got-(wantW-removedW)) > 1e-6*wantW {
		t.Fatalf("TotalWeight after rebalance = %v", got)
	}
	if wc.Len() != len(items)-len(victims) {
		t.Fatalf("Len = %d, want %d", wc.Len(), len(items)-len(victims))
	}
}

// TestWeightedAutoRebalanceGrowsShards mirrors the unweighted growth test.
func TestWeightedAutoRebalanceGrowsShards(t *testing.T) {
	wc := NewWeighted[int](8, 343)
	batch := make([]weighted.Item[int], 1000)
	for b := 0; b < 40; b++ {
		for i := range batch {
			batch[i] = weighted.Item[int]{Key: b*len(batch) + i, Weight: 1 + float64(i%9)}
		}
		if err := wc.InsertBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	if got := wc.Shards(); got < 4 {
		t.Fatalf("after 40k inserts only %d shards (want growth toward 8)", got)
	}
	if err := wc.Validate(); err != nil {
		t.Fatal(err)
	}
	if wc.Len() != 40_000 {
		t.Fatalf("Len = %d", wc.Len())
	}
}
