package shard

import (
	"math"
	"slices"
	"testing"

	"github.com/irsgo/irs/internal/core"
	"github.com/irsgo/irs/internal/stats"
	"github.com/irsgo/irs/internal/workload"
	"github.com/irsgo/irs/internal/xrand"
)

// The statistical contract of the sharded sampler: splitting a query's t
// samples over shards by a count-proportional multinomial must leave each
// sample exactly uniform over the whole range. These tests compare the
// Concurrent sampler's empirical distribution against the exact cell
// probabilities computed from a Static built on identical data, with fixed
// RNG seeds (so a pass is deterministic) and a generous significance level
// (so the fixed stream is far from the rejection boundary).

// statAlpha is deliberately small: any genuine partition-induced bias moves
// the statistic by orders of magnitude, while a 1e-4 significance keeps the
// fixed-seed streams far from the rejection boundary.
const statAlpha = 1e-4

// chiSquareAgainstStatic draws total samples from c over [lo, hi], buckets
// them into cells of equal key-width, and chi-square-tests the counts
// against the exact cell probabilities under the Static reference.
func chiSquareAgainstStatic(t *testing.T, draw func(t int, rng *xrand.RNG) []float64, ref *core.Static[float64], lo, hi float64, cells, total int, seed uint64) {
	t.Helper()
	width := (hi - lo) / float64(cells)
	probs := make([]float64, cells)
	rangeCount := ref.Count(lo, hi)
	if rangeCount == 0 {
		t.Fatal("reference range is empty")
	}
	for i := range probs {
		cellLo := lo + float64(i)*width
		cellHi := lo + float64(i+1)*width
		// Cells partition [lo, hi]: count keys in [cellLo, cellHi) except
		// the last cell, which is closed to include hi itself.
		n := ref.Count(cellLo, cellHi)
		if i < cells-1 {
			n -= ref.Count(cellHi, cellHi)
		}
		probs[i] = float64(n) / float64(rangeCount)
	}

	rng := xrand.New(seed)
	counts := make([]int, cells)
	out := draw(total, rng)
	if len(out) != total {
		t.Fatalf("drew %d samples, want %d", len(out), total)
	}
	for _, k := range out {
		if k < lo || k > hi {
			t.Fatalf("sample %g outside [%g, %g]", k, lo, hi)
		}
		cell := int((k - lo) / width)
		if cell >= cells {
			cell = cells - 1
		}
		counts[cell]++
	}

	res, err := stats.ChiSquareTest(counts, probs, statAlpha)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reject {
		t.Fatalf("chi-square rejects uniformity: stat=%.2f df=%d critical=%.2f (alpha=%g)",
			res.Stat, res.DF, res.Critical, res.Alpha)
	}
}

// TestConcurrentUniformityMatchesStatic is the headline check: sampling a
// range that spans several shards (including partially covered boundary
// shards) is distributed exactly like sampling the Static reference.
func TestConcurrentUniformityMatchesStatic(t *testing.T) {
	for _, dist := range []workload.Distribution{workload.Uniform, workload.Clustered} {
		t.Run(string(dist), func(t *testing.T) {
			rng := xrand.New(101)
			keys := workload.Keys(dist, 25_000, rng)
			sorted := append([]float64(nil), keys...)
			slices.Sort(sorted)
			c, err := NewFromSorted(sorted, 6)
			if err != nil {
				t.Fatal(err)
			}
			ref := core.NewStatic(keys)
			// A range from inside the second shard to inside the fifth:
			// two partially covered shards plus fully covered middles.
			lo, hi := sorted[len(sorted)/4], sorted[(4*len(sorted))/5]
			chiSquareAgainstStatic(t, func(n int, r *xrand.RNG) []float64 {
				out, err := c.Sample(lo, hi, n, r)
				if err != nil {
					t.Fatal(err)
				}
				return out
			}, ref, lo, hi, 64, 200_000, 102)
		})
	}
}

// TestConcurrentUniformityPerKey checks the distribution at the finest
// granularity: over a small multiset, every stored occurrence must be
// equally likely, which also catches any bias between shards of unequal
// occupancy.
func TestConcurrentUniformityPerKey(t *testing.T) {
	// 200 distinct integer keys with multiplicities 1..4, split 5 ways so
	// shard occupancies differ.
	var all []float64
	for k := 0; k < 200; k++ {
		for m := 0; m <= k%4; m++ {
			all = append(all, float64(k))
		}
	}
	c, err := NewFromSorted(all, 5)
	if err != nil {
		t.Fatal(err)
	}
	ref := core.NewStatic(all)
	probs := make([]float64, 200)
	for k := range probs {
		probs[k] = float64(ref.Count(float64(k), float64(k))) / float64(len(all))
	}
	rng := xrand.New(103)
	counts := make([]int, 200)
	const total = 150_000
	out, err := c.Sample(0, 199, total, rng)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range out {
		counts[int(k)]++
	}
	res, err := stats.ChiSquareTest(counts, probs, statAlpha)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reject {
		t.Fatalf("per-key chi-square rejects: stat=%.2f df=%d critical=%.2f", res.Stat, res.DF, res.Critical)
	}
}

// TestSampleManyUniformity pushes the same check through the batch path,
// many queries drawing in turn from one RNG.
func TestSampleManyUniformity(t *testing.T) {
	rng := xrand.New(107)
	keys := workload.Keys(workload.Uniform, 25_000, rng)
	c, err := NewFromSorted(keys, 6)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := core.NewStaticFromSorted(keys)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := keys[len(keys)/10], keys[(9*len(keys))/10]
	chiSquareAgainstStatic(t, func(n int, r *xrand.RNG) []float64 {
		// Split the draw across a batch of identical queries.
		const per = 1000
		queries := make([]Query[float64], n/per)
		for i := range queries {
			queries[i] = Query[float64]{Lo: lo, Hi: hi, T: per}
		}
		results, err := c.SampleMany(queries, r)
		if err != nil {
			t.Fatal(err)
		}
		var out []float64
		for _, res := range results {
			out = append(out, res...)
		}
		return out
	}, ref, lo, hi, 64, 200_000, 108)
}

// TestParallelSampleUniformity draws in large-t queries, each spread over
// all eight shards, and checks the distribution is unaffected.
func TestParallelSampleUniformity(t *testing.T) {
	rng := xrand.New(109)
	keys := workload.Keys(workload.Uniform, 25_000, rng)
	c, err := NewFromSorted(keys, 8)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := core.NewStaticFromSorted(keys)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := keys[100], keys[len(keys)-100]
	chiSquareAgainstStatic(t, func(n int, r *xrand.RNG) []float64 {
		var out []float64
		for len(out) < n {
			chunk := n - len(out)
			if chunk > 2*largeT {
				chunk = 2 * largeT
			}
			got, err := c.Sample(lo, hi, chunk, r)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, got...)
		}
		return out
	}, ref, lo, hi, 48, 160_000, 110)
}

// TestIndependenceAcrossQueries repeats one query and checks the paired
// samples are uncorrelated — the defining IRS property that distinguishes
// fresh sampling from a materialized sample served twice.
func TestIndependenceAcrossQueries(t *testing.T) {
	rng := xrand.New(113)
	keys := workload.Keys(workload.Uniform, 20_000, rng)
	c, err := NewFromSorted(keys, 5)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := keys[1000], keys[19_000]
	const pairs = 20_000
	xs := make([]float64, pairs)
	ys := make([]float64, pairs)
	for i := 0; i < pairs; i++ {
		a, err := c.Sample(lo, hi, 1, rng)
		if err != nil {
			t.Fatal(err)
		}
		b, err := c.Sample(lo, hi, 1, rng)
		if err != nil {
			t.Fatal(err)
		}
		xs[i], ys[i] = a[0], b[0]
	}
	r, err := stats.PearsonCorr(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	// Under independence the correlation is ~Normal(0, 1/sqrt(pairs));
	// 4.5 sigma keeps the fixed-seed run far from the boundary.
	bound := 4.5 / math.Sqrt(pairs)
	if r > bound || r < -bound {
		t.Fatalf("repeat-query correlation %.4f exceeds %.4f", r, bound)
	}
}
