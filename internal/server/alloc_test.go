package server

import (
	"runtime"
	"testing"

	"github.com/irsgo/irs/internal/persist"
	"github.com/irsgo/irs/internal/shard"
)

// newAllocCore builds a single-dataset core shaped like a steady-state
// deployment: preloaded keys across several shards, under cfg — which the
// pins leave at its zero value, the configuration the daemons ship (the
// deprecated linger window's timer reuse is pinned separately).
func newAllocCore(t testing.TB, cfg Config) *Core[float64] {
	t.Helper()
	keys := make([]float64, 10_000)
	for i := range keys {
		keys[i] = float64(i)
	}
	u, err := shard.NewFromSortedSeeded(keys, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	core := NewCore[float64](cfg)
	if err := core.Add("u", NewUnweightedDataset(u)); err != nil {
		t.Fatal(err)
	}
	return core
}

// TestSampleAppendZeroAllocs pins the tentpole claim: a steady-state
// SampleAppend round trip through the core — admission, coalescing, the
// backend SampleManyAppend, scatter, reply — performs zero heap
// allocations per request. AllocsPerRun counts mallocs process-wide, so
// the flusher goroutines are covered, not just the caller.
func TestSampleAppendZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates and drops pool Puts")
	}
	core := newAllocCore(t, Config{})
	defer core.Close()

	var dst []float64
	var err error
	// Warm up every pooled/reusable buffer: reply channel, each flusher's
	// batch slice and scratch, backend query scratch, and dst itself.
	for i := 0; i < 64; i++ {
		dst, err = core.SampleAppend("u", dst[:0], 0, 9_999, 16)
		if err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		dst, err = core.SampleAppend("u", dst[:0], 0, 9_999, 16)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(dst) != 16 {
		t.Fatalf("got %d samples", len(dst))
	}
	if allocs != 0 {
		t.Fatalf("steady-state SampleAppend allocates %.1f times per request, want 0", allocs)
	}
}

// TestSampleAppendZeroAllocsWithWindow repeats the regression with a
// configured linger window: the flusher's timer must be Reset, not
// re-allocated, per batch. The window is a single nanosecond so the test
// pays (almost) no wall-clock for it.
func TestSampleAppendZeroAllocsWithWindow(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates and drops pool Puts")
	}
	core := newAllocCore(t, Config{Flushers: 1, CoalesceWindow: 1})
	defer core.Close()

	var dst []float64
	var err error
	for i := 0; i < 64; i++ {
		dst, err = core.SampleAppend("u", dst[:0], 0, 9_999, 8)
		if err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		dst, err = core.SampleAppend("u", dst[:0], 0, 9_999, 8)
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Fatalf("steady-state SampleAppend with linger window allocates %.1f times per request, want 0", allocs)
	}
}

// TestInsertZeroAllocs pins the blocking Insert wrapper beside the sample
// pins: the pooled waiter and the closure handed to it cost no allocation.
// Each insert is balanced by a delete of the same keys so the backend never
// grows (growth is the one legitimate allocation, and not a per-request
// cost).
func TestInsertZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates and drops pool Puts")
	}
	core := newAllocCore(t, Config{})
	defer core.Close()

	items := make([]Item[float64], 8)
	keys := make([]float64, len(items))
	for i := range items {
		keys[i] = float64(i)*1000 + 0.5 // absent from the preload, spread across chunks
		items[i] = Item[float64]{Key: keys[i]}
	}
	var err error
	op := func() {
		if _, err = core.Insert("u", items); err == nil {
			_, err = core.Delete("u", keys)
		}
	}
	for i := 0; i < 64; i++ {
		op()
	}
	allocs := testing.AllocsPerRun(200, op)
	if err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Fatalf("steady-state insert+delete allocates %.1f times per round, want 0", allocs)
	}
}

// newDurableAllocCore is newAllocCore with SyncAlways persistence
// attached: the full group-commit write path — encode, stage, apply,
// committer fsync, ACK — under the dataset the alloc regressions drive.
func newDurableAllocCore(t testing.TB) *Core[float64] {
	t.Helper()
	store, rec, err := persist.Open(t.TempDir(), persist.Float64Keys(),
		persist.Options{Kind: persist.KindUnweighted, Sync: persist.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]float64, 10_000)
	for i := range keys {
		keys[i] = float64(i)
	}
	u, err := shard.NewFromSortedSeeded(keys, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	core := NewCore[float64](Config{})
	if err := core.AddDurable("u", NewUnweightedDataset(u), store, rec.Stats); err != nil {
		t.Fatal(err)
	}
	return core
}

// TestDurableInsertDeleteZeroAllocs pins this PR's tentpole claim: a
// steady-state durable mutation round trip — coalesce, encode into the
// store's pooled buffer, stage under the log mutex, apply, group-commit
// fsync, ACK — performs zero heap allocations per request. Inserts are
// balanced by deletes of the same keys so the backend never grows (growth
// is the one legitimate allocation in the pipeline, and it is not a
// per-request cost).
func TestDurableInsertDeleteZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates and drops pool Puts")
	}
	core := newDurableAllocCore(t)
	defer core.Close()

	const n = 8
	items := make([]Item[float64], n)
	keys := make([]float64, n)
	for i := range items {
		k := float64(i)*1000 + 0.5 // absent from the preload, spread across chunks
		items[i] = Item[float64]{Key: k}
		keys[i] = k
	}
	var err error
	op := func() {
		if _, err = core.Insert("u", items); err != nil {
			return
		}
		_, err = core.Delete("u", keys)
	}
	for i := 0; i < 64; i++ {
		op()
		if err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(200, op)
	if err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Fatalf("steady-state durable insert+delete allocates %.1f times per round, want 0", allocs)
	}
}

// TestSnapshotExportBytes pins what one Core.Snapshot allocates: the
// export streams from the shards into the file's fixed encode buffer, so
// a snapshot's transient heap is a constant, not a multiple of the
// dataset. Both kinds must allocate the same total, within 64 KiB, at 2^16
// and at 2^18 items; any per-item copy of the export (a slice export, a
// keys-then-items conversion) adds at least 2 MiB at the larger size.
func TestSnapshotExportBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	snapshotBytes := func(t *testing.T, kind uint8, n int) uint64 {
		items := make([]Item[float64], n)
		keys := make([]float64, n)
		for i := range items {
			keys[i] = float64(i)
			items[i] = Item[float64]{Key: keys[i], Weight: 1 + float64(i%7)}
		}
		var ds Dataset[float64]
		if kind == persist.KindWeighted {
			w, err := shard.NewWeightedFromSortedItems(items, 4, 7)
			if err != nil {
				t.Fatal(err)
			}
			ds = NewWeightedDataset(w)
		} else {
			u, err := shard.NewFromSortedSeeded(keys, 4, 7)
			if err != nil {
				t.Fatal(err)
			}
			ds = NewUnweightedDataset(u)
		}
		store, rec, err := persist.Open(t.TempDir(), persist.Float64Keys(), persist.Options{Kind: kind})
		if err != nil {
			t.Fatal(err)
		}
		core := NewCore[float64](Config{})
		defer core.Close()
		if err := core.AddDurable("d", ds, store, rec.Stats); err != nil {
			t.Fatal(err)
		}
		if _, err := core.Snapshot("d"); err != nil { // warm the writer paths
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		info, err := core.Snapshot("d")
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if info.Items != n {
			t.Fatalf("snapshot covered %d items, want %d", info.Items, n)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	for _, tc := range []struct {
		name string
		kind uint8
	}{
		{"weighted", persist.KindWeighted},
		{"unweighted", persist.KindUnweighted},
	} {
		t.Run(tc.name, func(t *testing.T) {
			small, large := snapshotBytes(t, tc.kind, 1<<16), snapshotBytes(t, tc.kind, 1<<18)
			t.Logf("%s snapshot: %d B at 2^16 items, %d B at 2^18", tc.name, small, large)
			if large > small+64<<10 {
				t.Fatalf("%s snapshot allocates %d B at 2^18 items against %d B at 2^16, want the same within 64 KiB",
					tc.name, large, small)
			}
		})
	}
}

// BenchmarkCoreDurableInsert is the ingest counterpart of the sampling
// benchmark: one durable insert round trip per iteration under
// SyncAlways, group commit amortizing the fsyncs.
func BenchmarkCoreDurableInsert(b *testing.B) {
	core := newDurableAllocCore(b)
	defer core.Close()
	items := make([]Item[float64], 8)
	keys := make([]float64, 8)
	for i := range items {
		k := float64(i)*1000 + 0.5
		items[i] = Item[float64]{Key: k}
		keys[i] = k
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Insert("u", items); err != nil {
			b.Fatal(err)
		}
		if _, err := core.Delete("u", keys); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCoreSampleAppend is the core-level serving benchmark the alloc
// regression is derived from; -benchmem reports the same 0 allocs/op.
func BenchmarkCoreSampleAppend(b *testing.B) {
	core := newAllocCore(b, Config{})
	defer core.Close()
	var dst []float64
	var err error
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst, err = core.SampleAppend("u", dst[:0], 0, 9_999, 16)
		if err != nil {
			b.Fatal(err)
		}
	}
}
