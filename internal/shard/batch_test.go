package shard

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"github.com/irsgo/irs/internal/core"
	"github.com/irsgo/irs/internal/weighted"
	"github.com/irsgo/irs/internal/xrand"
)

// manySampler is the batch surface both instantiations share.
type manySampler interface {
	SampleMany([]Query[float64], *xrand.RNG) ([][]float64, error)
	SampleManyAppend([]float64, []int, []Query[float64], *xrand.RNG) ([]float64, []int, error)
	SampleManyStatsAppend([]float64, []int, []Query[float64], []QueryStats, *xrand.RNG) ([]float64, []int, error)
	RangeStats(lo, hi float64) (int, float64)
}

// largeT is the large-t input of the batch tests: enough
// samples per query or batch that every overlapping shard draws many, on
// the same sequential path as a small query. (Subtest names that mention
// parallelQueryMin refer to this size.)
const largeT = 4096

// TestSampleManyIsAViewOfSampleManyAppend: for one seed the two return the
// same samples segment for segment — nil where the segment is empty — on a
// batch mixing wide, single-shard, empty, inverted, zero-weight and T = 0
// queries, with a small and a large wide T. Appending after a prefix must
// leave the prefix alone and return boundaries relative to the whole buffer.
func TestSampleManyIsAViewOfSampleManyAppend(t *testing.T) {
	const n = 20_000
	keys := make([]float64, n)
	items := make([]weighted.Item[float64], n)
	for i := range keys {
		keys[i] = float64(i)
		w := float64(i%5) + 0.25
		if i >= 6000 && i < 7000 {
			w = 0 // keys here exist but carry no mass
		}
		items[i] = weighted.Item[float64]{Key: float64(i), Weight: w}
	}
	u, err := NewFromSorted(keys, 6)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWeightedFromItems(items, 6, 1)
	if err != nil {
		t.Fatal(err)
	}

	batch := func(wideT int) []Query[float64] {
		return []Query[float64]{
			{Lo: 0, Hi: n, T: wideT},           // every shard
			{Lo: 9, Hi: 3, T: 7},               // inverted
			{Lo: 100.25, Hi: 100.75, T: 5},     // no key in range
			{Lo: 6000, Hi: 6999, T: 11},        // zero weight (weighted only)
			{Lo: 0, Hi: n, T: 0},               // nothing asked for
			{Lo: 40, Hi: 90, T: 64},            // one shard
			{Lo: 5000, Hi: 8000, T: wideT / 2}, // straddles the zero-weight stretch
			{Lo: -5, Hi: -1, T: 3},             // below every key
			{Lo: n / 2, Hi: n, T: 9},           // last query non-empty
		}
	}
	for _, tc := range []struct {
		name    string
		queries []Query[float64]
	}{
		{"below parallelQueryMin", batch(200)},
		{"above parallelQueryMin", batch(largeT)},
	} {
		for name, s := range map[string]manySampler{"unweighted": u, "weighted": w} {
			t.Run(tc.name+"/"+name, func(t *testing.T) {
				results, err := s.SampleMany(tc.queries, xrand.New(77))
				if err != nil {
					t.Fatal(err)
				}
				prefix := []float64{-1, -2, -3}
				flat, starts, err := s.SampleManyAppend(slices.Clone(prefix), []int{42}, tc.queries, xrand.New(77))
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(flat[:len(prefix)], prefix) || starts[0] != 42 {
					t.Fatalf("SampleManyAppend disturbed what it was handed: %v / %v", flat[:len(prefix)], starts[0])
				}
				starts = starts[1:]
				if len(results) != len(tc.queries) || len(starts) != len(tc.queries)+1 {
					t.Fatalf("%d results and %d boundaries for %d queries", len(results), len(starts), len(tc.queries))
				}
				if starts[0] != len(prefix) || starts[len(starts)-1] != len(flat) {
					t.Fatalf("boundaries %v do not span the appended samples [%d, %d)", starts, len(prefix), len(flat))
				}
				for i, q := range tc.queries {
					seg := flat[starts[i]:starts[i+1]]
					if (results[i] == nil) != (len(seg) == 0) {
						t.Fatalf("query %d: SampleMany nil = %v but the segment holds %d samples", i, results[i] == nil, len(seg))
					}
					if !slices.Equal(results[i], seg) {
						t.Fatalf("query %d: SampleMany and SampleManyAppend differ under one seed", i)
					}
					if len(seg) != 0 && len(seg) != q.T {
						t.Fatalf("query %d: %d samples, want 0 or %d", i, len(seg), q.T)
					}
					for _, k := range seg {
						if k < q.Lo || k > q.Hi {
							t.Fatalf("query %d: sample %v outside [%v, %v]", i, k, q.Lo, q.Hi)
						}
					}
				}
				empties := map[int]bool{1: true, 2: true, 4: true, 7: true}
				if name == "weighted" {
					empties[3] = true
				}
				for i := range tc.queries {
					if got := results[i] == nil; got != empties[i] {
						t.Fatalf("query %d: empty = %v, want %v", i, got, empties[i])
					}
				}
			})
		}
	}

	// A negative T fails the batch whole and leaves the buffers as given.
	dst, starts := []float64{1}, []int{2}
	bad := []Query[float64]{{Lo: 0, Hi: n, T: 5}, {Lo: 0, Hi: n, T: -1}}
	gotDst, gotStarts, err := u.SampleManyAppend(dst, starts, bad, xrand.New(1))
	if err != core.ErrInvalidCount || len(gotDst) != 1 || len(gotStarts) != 1 {
		t.Fatalf("negative T: err = %v, dst %v, starts %v", err, gotDst, gotStarts)
	}
	if res, err := u.SampleMany(bad, xrand.New(1)); err != core.ErrInvalidCount || res != nil {
		t.Fatalf("negative T through SampleMany: %v, %v", res, err)
	}
}

// TestSampleManyStatsAppendReportsRangeStats: every query's reported
// (N, Mass), read in the sampling pass under the batch's locks, equals what
// RangeStats reports for the same range and what a scan of the stored keys
// and weights gives — on a batch mixing wide, empty,
// inverted and zero-weight ranges, on both instantiations, with a small and
// a large wide T, and on an all-inverted batch. Stale values in stats are
// overwritten, the queries are left as they were, and the samples are
// SampleManyAppend's under the same seed.
func TestSampleManyStatsAppendReportsRangeStats(t *testing.T) {
	const n = 10_000
	keys := make([]float64, n)
	items := make([]weighted.Item[float64], n)
	for i := range keys {
		keys[i] = float64(i)
		w := float64(i%3) + 0.5
		if i >= 3000 && i < 4000 {
			w = 0
		}
		items[i] = weighted.Item[float64]{Key: float64(i), Weight: w}
	}
	u, err := NewFromSorted(keys, 5)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWeightedFromItems(items, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, wideT := range []int{100, largeT} {
		for name, s := range map[string]manySampler{"unweighted": u, "weighted": w} {
			t.Run(fmt.Sprintf("%s/wideT=%d", name, wideT), func(t *testing.T) {
				for _, queries := range [][]Query[float64]{{
					{Lo: 0, Hi: n, T: wideT},           // every shard
					{Lo: 9, Hi: 3, T: 7},               // inverted
					{Lo: 100.25, Hi: 100.75, T: 5},     // no key in range
					{Lo: 3000, Hi: 3999, T: 11},        // zero weight (weighted)
					{Lo: 2500, Hi: 4500, T: wideT / 2}, // straddles it
					{Lo: 40, Hi: 90, T: 3},             // one shard
					{Lo: n / 2, Hi: 2 * n, T: 9},       // runs off the end
				}, {
					{Lo: 9, Hi: 3, T: wideT}, // all inverted: no locks taken
					{Lo: 1, Hi: 0, T: 2},
				}} {
					sent := slices.Clone(queries)
					stats := make([]QueryStats, len(queries))
					for i := range stats {
						stats[i] = QueryStats{N: -1, Mass: -1} // stale
					}
					got, gotStarts, err := s.SampleManyStatsAppend(nil, nil, queries, stats, xrand.New(5))
					if err != nil {
						t.Fatal(err)
					}
					if !slices.Equal(queries, sent) {
						t.Fatalf("queries written: %v, sent %v", queries, sent)
					}
					want, wantStarts, err := s.SampleManyAppend(nil, nil, queries, xrand.New(5))
					if err != nil {
						t.Fatal(err)
					}
					if !slices.Equal(got, want) || !slices.Equal(gotStarts, wantStarts) {
						t.Fatal("SampleManyStatsAppend and SampleManyAppend differ under one seed")
					}
					for i, q := range queries {
						var want QueryStats
						if q.Lo <= q.Hi {
							want.N, want.Mass = s.RangeStats(q.Lo, q.Hi)
						}
						if stats[i] != want {
							t.Errorf("query %d [%v, %v]: reported %+v, RangeStats %+v", i, q.Lo, q.Hi, stats[i], want)
						}
						// RangeStats is the same stage-1 code at t = 0, so
						// the test's own slices are the independent oracle.
						// Every weight is a multiple of 1/2, so sums are exact.
						var brute QueryStats
						for j, k := range keys {
							if k >= q.Lo && k <= q.Hi {
								brute.N++
								if name == "weighted" {
									brute.Mass += items[j].Weight
								} else {
									brute.Mass++
								}
							}
						}
						if stats[i] != brute {
							t.Errorf("query %d [%v, %v]: reported %+v, the stored keys give %+v", i, q.Lo, q.Hi, stats[i], brute)
						}
					}
				}
			})
		}
	}
}

// TestSamplesDoNotDependOnGOMAXPROCS: the engine draws every query in order
// on the caller's goroutine from the caller's RNG, so one seed yields
// bit-identical samples (and batch stats) at GOMAXPROCS 1 and 4 — for a
// single t = 8192 query over four shards and for a 16-query batch of 8192
// samples in all, on both instantiations. With four Ps to run on, a warm
// SampleManyStatsAppend on that batch allocates nothing.
func TestSamplesDoNotDependOnGOMAXPROCS(t *testing.T) {
	const n = 20_000
	keys := make([]float64, n)
	items := make([]weighted.Item[float64], n)
	for i := range keys {
		keys[i] = float64(i)
		items[i] = weighted.Item[float64]{Key: float64(i), Weight: float64(i%7) + 0.5}
	}
	u, err := NewFromSorted(keys, 4)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWeightedFromItems(items, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	queries := make([]Query[float64], 16)
	for i := range queries {
		lo := float64(i * 1000)
		queries[i] = Query[float64]{Lo: lo, Hi: lo + 8000, T: 512} // two or three shards each
	}

	type sampler interface {
		manySampler
		SampleAppend([]float64, float64, float64, int, *xrand.RNG) ([]float64, error)
	}
	type draws struct {
		one, flat []float64
		starts    []int
		stats     []QueryStats
	}
	for name, s := range map[string]sampler{"unweighted": u, "weighted": w} {
		t.Run(name, func(t *testing.T) {
			drawAt := func(procs int) (d draws) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				var err error
				if d.one, err = s.SampleAppend(nil, 0, n, 8192, xrand.New(41)); err != nil {
					t.Fatal(err)
				}
				d.stats = make([]QueryStats, len(queries))
				if d.flat, d.starts, err = s.SampleManyStatsAppend(nil, nil, queries, d.stats, xrand.New(43)); err != nil {
					t.Fatal(err)
				}
				return d
			}
			one, four := drawAt(1), drawAt(4)
			if !slices.Equal(one.one, four.one) {
				t.Error("SampleAppend: GOMAXPROCS 1 and 4 draw different samples under one seed")
			}
			if !slices.Equal(one.flat, four.flat) || !slices.Equal(one.starts, four.starts) || !slices.Equal(one.stats, four.stats) {
				t.Error("SampleManyStatsAppend: GOMAXPROCS 1 and 4 draw different samples or stats under one seed")
			}

			if raceEnabled {
				return // race instrumentation allocates and drops pool Puts
			}
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
			dst, starts, stats, rng := four.flat, four.starts, four.stats, xrand.New(47)
			allocs := allocsPerRun(100, func() {
				dst, starts, err = s.SampleManyStatsAppend(dst[:0], starts[:0], queries, stats, rng)
			})
			if err != nil {
				t.Fatal(err)
			}
			if allocs != 0 {
				t.Fatalf("warm SampleManyStatsAppend of %d samples at GOMAXPROCS 4: %d allocs/op, want 0", len(dst), allocs)
			}
		})
	}
}

// allocsPerRun is testing.AllocsPerRun without its switch to GOMAXPROCS 1:
// the mallocs per call of f over runs calls after one warm-up call, at the
// GOMAXPROCS the caller set.
func allocsPerRun(runs int, f func()) uint64 {
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.Mallocs - before.Mallocs) / uint64(runs)
}

// TestInsertBatchZeroAllocs pins that a warm 32768-key float64 InsertBatch
// — pooled copy, radix sort with pooled scratch, finger-searched segments —
// allocates nothing. The new keys fall one per gap of a 2^18-key load, so
// no chunk splits (growth is the one legitimate allocation), and each round
// deletes them again.
func TestInsertBatchZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates and drops pool Puts")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	keys := make([]float64, 1<<18)
	for i := range keys {
		keys[i] = float64(i)
	}
	c, err := NewFromSorted(keys, 4)
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]float64, 32768)
	for i := range batch {
		batch[i] = float64(8*i) + 0.5
	}
	xrand.New(9).Shuffle(len(batch), func(i, j int) { batch[i], batch[j] = batch[j], batch[i] })
	var mallocs uint64
	for round := range 4 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		c.InsertBatch(batch)
		runtime.ReadMemStats(&after)
		if round > 0 { // the first round warms the pools
			mallocs += after.Mallocs - before.Mallocs
		}
		if got := c.DeleteBatch(batch); got != len(batch) {
			t.Fatalf("round %d: DeleteBatch removed %d of %d", round, got, len(batch))
		}
	}
	if mallocs != 0 {
		t.Fatalf("warm 32768-key InsertBatch: %d allocations over 3 rounds, want 0", mallocs)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}
