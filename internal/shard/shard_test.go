package shard

import (
	"slices"
	"testing"

	"github.com/irsgo/irs/internal/core"
	"github.com/irsgo/irs/internal/workload"
	"github.com/irsgo/irs/internal/xrand"
)

// buildBoth returns a Concurrent (p shards) and a Static reference over the
// same keys.
func buildBoth(t *testing.T, keys []float64, p int) (*Concurrent[float64], *core.Static[float64]) {
	t.Helper()
	sorted := append([]float64(nil), keys...)
	slices.Sort(sorted)
	c, err := NewFromSorted(sorted, p)
	if err != nil {
		t.Fatal(err)
	}
	ref := core.NewStatic(keys)
	return c, ref
}

func TestConstructorsAndErrors(t *testing.T) {
	if _, err := NewFromSorted([]int{2, 1}, 4); err != core.ErrUnsorted {
		t.Fatalf("NewFromSorted unsorted: err = %v", err)
	}
	if _, err := NewFromSplits([]int{5, 3}); err != core.ErrUnsorted {
		t.Fatalf("NewFromSplits unsorted: err = %v", err)
	}
	c := New[int](0) // target < 1 is clamped
	if c.Shards() != 1 || c.Len() != 0 {
		t.Fatalf("empty: shards=%d len=%d", c.Shards(), c.Len())
	}
	rng := xrand.New(1)
	if _, err := c.Sample(0, 10, 3, rng); err != core.ErrEmptyRange {
		t.Fatalf("empty sample: err = %v", err)
	}
	if _, err := c.Sample(0, 10, -1, rng); err != core.ErrInvalidCount {
		t.Fatalf("negative t: err = %v", err)
	}
	out, err := c.Sample(0, 10, 0, rng)
	if err != nil || len(out) != 0 {
		t.Fatalf("t=0: %v %v", out, err)
	}
	// Inverted range behaves like an empty one.
	c.Insert(5)
	if _, err := c.Sample(10, 0, 1, rng); err != core.ErrEmptyRange {
		t.Fatalf("inverted range: err = %v", err)
	}
	if got := c.Count(10, 0); got != 0 {
		t.Fatalf("inverted count = %d", got)
	}
}

func TestFromSortedMatchesReference(t *testing.T) {
	rng := xrand.New(7)
	keys := workload.Keys(workload.Clustered, 30_000, rng)
	c, ref := buildBoth(t, keys, 7)

	if c.Len() != ref.Len() {
		t.Fatalf("Len: %d vs %d", c.Len(), ref.Len())
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Shards != 7 || st.Len != ref.Len() {
		t.Fatalf("stats: %+v", st)
	}
	// Equi-depth: every shard within a factor two of fair share.
	fair := ref.Len() / st.Shards
	for i, n := range st.PerShard {
		if n < fair/2 || n > fair*2 {
			t.Fatalf("shard %d holds %d keys, fair share %d", i, n, fair)
		}
	}
	// Counts agree with the reference on many random ranges, including
	// cross-shard ones.
	for trial := 0; trial < 200; trial++ {
		lo := rng.Float64Range(0, 1e9)
		hi := rng.Float64Range(0, 1e9)
		if hi < lo {
			lo, hi = hi, lo
		}
		if got, want := c.Count(lo, hi), ref.Count(lo, hi); got != want {
			t.Fatalf("Count(%g, %g) = %d, want %d", lo, hi, got, want)
		}
	}
	// AppendRange returns the exact sorted range contents.
	lo, hi := keys[3], keys[len(keys)/2]
	if hi < lo {
		lo, hi = hi, lo
	}
	got := c.AppendRange(nil, lo, hi)
	if !slices.IsSorted(got) || len(got) != ref.Count(lo, hi) {
		t.Fatalf("AppendRange: %d keys, sorted=%v, want %d", len(got), slices.IsSorted(got), ref.Count(lo, hi))
	}
}

func TestSamplesAlwaysInRange(t *testing.T) {
	rng := xrand.New(11)
	keys := workload.Keys(workload.Zipf, 20_000, rng)
	c, ref := buildBoth(t, keys, 5)
	for trial := 0; trial < 100; trial++ {
		i, j := rng.Intn(len(keys)), rng.Intn(len(keys))
		lo, hi := keys[i], keys[j]
		if hi < lo {
			lo, hi = hi, lo
		}
		out, err := c.Sample(lo, hi, 50, rng)
		if err != nil {
			t.Fatalf("Sample(%g, %g): %v", lo, hi, err)
		}
		if len(out) != 50 {
			t.Fatalf("got %d samples", len(out))
		}
		for _, k := range out {
			if k < lo || k > hi {
				t.Fatalf("sample %g outside [%g, %g]", k, lo, hi)
			}
			if ref.Count(k, k) == 0 {
				t.Fatalf("sample %g is not a stored key", k)
			}
		}
	}
}

func TestUpdatesMatchReference(t *testing.T) {
	rng := xrand.New(13)
	c, err := NewFromSorted([]int{}, 4)
	if err != nil {
		t.Fatal(err)
	}
	ref := map[int]int{}
	refLen := 0
	for op := 0; op < 20_000; op++ {
		k := rng.Intn(500)
		if rng.Bernoulli(0.6) {
			c.Insert(k)
			ref[k]++
			refLen++
		} else {
			got := c.Delete(k)
			want := ref[k] > 0
			if got != want {
				t.Fatalf("op %d: Delete(%d) = %v, want %v", op, k, got, want)
			}
			if want {
				ref[k]--
				refLen--
			}
		}
	}
	if c.Len() != refLen {
		t.Fatalf("Len = %d, want %d", c.Len(), refLen)
	}
	for k, n := range ref {
		if got := c.Count(k, k); got != n {
			t.Fatalf("Count(%d,%d) = %d, want %d", k, k, got, n)
		}
		if c.Contains(k) != (n > 0) {
			t.Fatalf("Contains(%d) = %v with %d copies", k, c.Contains(k), n)
		}
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBatchOpsMatchPointOps(t *testing.T) {
	rng := xrand.New(17)
	keys := workload.Keys(workload.Uniform, 10_000, rng)
	c, err := NewFromSorted(keys, 6)
	if err != nil {
		t.Fatal(err)
	}
	extra := make([]float64, 5000)
	for i := range extra {
		extra[i] = rng.Float64Range(0, 1e9)
	}
	c.InsertBatch(extra)
	if c.Len() != len(keys)+len(extra) {
		t.Fatalf("after InsertBatch: Len = %d", c.Len())
	}
	for _, k := range extra[:100] {
		if !c.Contains(k) {
			t.Fatalf("batched key %g missing", k)
		}
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	// Deleting the batch plus never-inserted keys removes exactly the batch.
	victims := append(append([]float64(nil), extra...), -1, -2, -3)
	if got := c.DeleteBatch(victims); got != len(extra) {
		t.Fatalf("DeleteBatch removed %d, want %d", got, len(extra))
	}
	if c.Len() != len(keys) {
		t.Fatalf("after DeleteBatch: Len = %d, want %d", c.Len(), len(keys))
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	// Empty batches are no-ops.
	c.InsertBatch(nil)
	if got := c.DeleteBatch(nil); got != 0 || c.Len() != len(keys) {
		t.Fatalf("empty batches changed state: removed=%d len=%d", got, c.Len())
	}
}

func TestSampleMany(t *testing.T) {
	rng := xrand.New(19)
	keys := workload.Keys(workload.Uniform, 15_000, rng)
	c, ref := buildBoth(t, keys, 5)

	queries := []Query[float64]{
		{Lo: 0, Hi: 1e9, T: 100},           // whole key space
		{Lo: keys[10], Hi: keys[10], T: 5}, // point range
		{Lo: 2e9, Hi: 3e9, T: 4},           // empty range -> nil, not an error
		{Lo: 10, Hi: 0, T: 4},              // inverted range -> nil
		{Lo: 0, Hi: 1e9, T: 0},             // zero samples
	}
	results, err := c.SampleMany(queries, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(queries) {
		t.Fatalf("got %d results", len(results))
	}
	if len(results[0]) != 100 || len(results[1]) != 5 {
		t.Fatalf("result sizes: %d, %d", len(results[0]), len(results[1]))
	}
	if results[2] != nil || results[3] != nil || len(results[4]) != 0 {
		t.Fatalf("degenerate queries: %v %v %v", results[2], results[3], results[4])
	}
	for _, k := range results[1] {
		if k != keys[10] {
			t.Fatalf("point query returned %g, want %g", k, keys[10])
		}
	}
	for _, k := range results[0] {
		if ref.Count(k, k) == 0 {
			t.Fatalf("sample %g is not a stored key", k)
		}
	}
	if _, err := c.SampleMany([]Query[float64]{{Lo: 0, Hi: 1, T: -1}}, rng); err != core.ErrInvalidCount {
		t.Fatalf("negative T: err = %v", err)
	}
	empty, err := c.SampleMany(nil, rng)
	if err != nil || len(empty) != 0 {
		t.Fatalf("nil batch: %v %v", empty, err)
	}

	// A large batch (64 × 256 samples) returns the right shapes and
	// in-range values too.
	big := make([]Query[float64], 64)
	for i := range big {
		lo := keys[rng.Intn(len(keys))]
		big[i] = Query[float64]{Lo: lo, Hi: lo + 1e7, T: 256}
	}
	results, err = c.SampleMany(big, rng)
	if err != nil {
		t.Fatal(err)
	}
	for i, out := range results {
		q := big[i]
		if want := ref.Count(q.Lo, q.Hi); want == 0 {
			if out != nil {
				t.Fatalf("query %d: non-nil result on empty range", i)
			}
			continue
		}
		if len(out) != q.T {
			t.Fatalf("query %d: %d samples, want %d", i, len(out), q.T)
		}
		for _, k := range out {
			if k < q.Lo || k > q.Hi {
				t.Fatalf("query %d: sample %g outside [%g, %g]", i, k, q.Lo, q.Hi)
			}
		}
	}
}

func TestAutoRebalanceGrowsShards(t *testing.T) {
	c := New[int](8)
	if c.Shards() != 1 {
		t.Fatalf("fresh structure has %d shards", c.Shards())
	}
	batch := make([]int, 1000)
	for b := 0; b < 40; b++ {
		for i := range batch {
			batch[i] = b*len(batch) + i
		}
		c.InsertBatch(batch)
	}
	if got := c.Shards(); got < 4 {
		t.Fatalf("after 40k inserts only %d shards (want growth toward 8)", got)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 40_000 {
		t.Fatalf("Len = %d", c.Len())
	}
}

func TestManualRebalanceKeepsContents(t *testing.T) {
	rng := xrand.New(23)
	keys := workload.Keys(workload.Uniform, 9_000, rng)
	c, ref := buildBoth(t, keys, 3)
	// Skew the structure, then rebalance and check nothing was lost.
	skew := make([]float64, 3000)
	for i := range skew {
		skew[i] = rng.Float64Range(0, 1e6) // all land in the lowest shard
	}
	c.InsertBatch(skew)
	c.Rebalance()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.Len() != ref.Len()+len(skew) {
		t.Fatalf("Len = %d, want %d", c.Len(), ref.Len()+len(skew))
	}
	if got, want := c.Count(0, 1e6), ref.Count(0, 1e6)+len(skew); got != want {
		t.Fatalf("skewed range count = %d, want %d", got, want)
	}
	st := c.Stats()
	if st.Shards < 3 {
		t.Fatalf("rebalance shrank shards to %d", st.Shards)
	}
}

func TestDuplicateHeavyKeys(t *testing.T) {
	// A single giant duplicate run cannot be separated by any split point;
	// the structure must stay correct (and not livelock on rebalances).
	c := New[int](4)
	batch := make([]int, 1000)
	for i := range batch {
		batch[i] = 42
	}
	for b := 0; b < 12; b++ {
		c.InsertBatch(batch)
	}
	if c.Len() != 12_000 || c.Count(42, 42) != 12_000 {
		t.Fatalf("len=%d count=%d", c.Len(), c.Count(42, 42))
	}
	rng := xrand.New(29)
	out, err := c.Sample(0, 100, 32, rng)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range out {
		if k != 42 {
			t.Fatalf("sample %d", k)
		}
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFromSplitsLayoutIsFixed(t *testing.T) {
	// An explicit split layout must survive arbitrarily skewed traffic:
	// no auto-rebalance may replace the caller's routing.
	c, err := NewFromSplits([]int{100})
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]int, 1000)
	for b := 0; b < 30; b++ {
		for i := range batch {
			batch[i] = b*len(batch) + i + 1000 // all above the split
		}
		c.InsertBatch(batch)
	}
	st := c.Stats()
	if st.Shards != 2 || st.PerShard[0] != 0 || st.PerShard[1] != 30_000 {
		t.Fatalf("fixed layout was rebalanced away: %+v", st)
	}
	// An explicit Rebalance abandons the fixed layout for learned splits.
	c.Rebalance()
	st = c.Stats()
	if st.PerShard[0] == 0 {
		t.Fatalf("explicit Rebalance did not re-learn splits: %+v", st)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSampleManyDisjointShards(t *testing.T) {
	// Queries at opposite ends of the key space lock only their own
	// shards; the middle shards are skipped. The locking itself is
	// exercised under -race elsewhere; here we check the answers.
	rng := xrand.New(31)
	keys := workload.Keys(workload.Uniform, 20_000, rng)
	c, ref := buildBoth(t, keys, 8)
	queries := []Query[float64]{
		{Lo: 0, Hi: keys[1000], T: 40},
		{Lo: keys[len(keys)-1000], Hi: 1e9, T: 40},
	}
	results, err := c.SampleMany(queries, rng)
	if err != nil {
		t.Fatal(err)
	}
	for i, out := range results {
		q := queries[i]
		if len(out) != q.T {
			t.Fatalf("query %d: %d samples", i, len(out))
		}
		for _, k := range out {
			if k < q.Lo || k > q.Hi || ref.Count(k, k) == 0 {
				t.Fatalf("query %d: bad sample %g", i, k)
			}
		}
	}
}

func TestFromSplitsRouting(t *testing.T) {
	c, err := NewFromSplits([]int{10, 20, 20, 30})
	if err != nil {
		t.Fatal(err)
	}
	if c.Shards() != 5 {
		t.Fatalf("shards = %d", c.Shards())
	}
	for k := -5; k < 45; k++ {
		c.Insert(k)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	// Keys -5..9 | 10..19 | (empty: [20,20)) | 20..29 | 30..44.
	want := []int{15, 10, 0, 10, 15}
	for i, n := range st.PerShard {
		if n != want[i] {
			t.Fatalf("shard occupancy %v, want %v", st.PerShard, want)
		}
	}
}
