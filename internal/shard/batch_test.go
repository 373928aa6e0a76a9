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

// TestSampleManyIsAViewOfSampleManyAppend: for one seed the two return the
// same samples segment for segment — nil where the segment is empty — on a
// batch mixing wide, single-shard, empty, inverted, zero-weight and T = 0
// queries, below parallelQueryMin (answered in order on the caller's
// goroutine) and above it (the fan-out, whenever a second processor is
// configured: the test raises GOMAXPROCS itself so that side always runs).
// Appending after a prefix must leave the prefix alone and return
// boundaries relative to the whole buffer.
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
		name     string
		queries  []Query[float64]
		parallel bool
	}{
		{"below parallelQueryMin", batch(200), false},
		{"above parallelQueryMin", batch(parallelQueryMin), true},
	} {
		for name, s := range map[string]manySampler{"unweighted": u, "weighted": w} {
			t.Run(tc.name+"/"+name, func(t *testing.T) {
				if tc.parallel && runtime.GOMAXPROCS(0) < 2 {
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
				}
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
// RangeStats reports for the same range — on a batch mixing wide, empty,
// inverted and zero-weight ranges, on both instantiations, below and above
// parallelQueryMin, and on an all-inverted batch. Stale values in stats are
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
	for _, wideT := range []int{100, parallelQueryMin} {
		for name, s := range map[string]manySampler{"unweighted": u, "weighted": w} {
			t.Run(fmt.Sprintf("%s/wideT=%d", name, wideT), func(t *testing.T) {
				if wideT >= parallelQueryMin && runtime.GOMAXPROCS(0) < 2 {
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
				}
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
					}
				}
			})
		}
	}
}
