package shard

import (
	"math"
	"slices"
	"testing"

	"github.com/irsgo/irs/internal/stats"
	"github.com/irsgo/irs/internal/workload"
	"github.com/irsgo/irs/internal/xrand"
)

// The distributional contract of the sharded sampler: splitting a query's
// t samples over shards by a count-proportional multinomial must leave each
// sample exactly uniform over the whole range. These tests check it
// exactly, with checkSplitExact (exact_test.go), on the shapes the
// sampled suites used: workload distributions over six shards, a small
// multiset of unequal occupancies, the batch path, and eight shards. The
// positions of a large-t query draw their shards independently from one
// alias table and each shard's segment is i.i.d. (internal/split's
// TestSplitMatchesReference and TestDrawScatterProperties), so the
// one-sample law is the whole law.

// quantileBounds returns the keys at the given fractions of sorted.
func quantileBounds(sorted []float64, fracs ...float64) []float64 {
	out := make([]float64, len(fracs))
	for i, f := range fracs {
		out[i] = sorted[min(int(f*float64(len(sorted))), len(sorted)-1)]
	}
	return out
}

// TestConcurrentUniformityMatchesStatic is the headline check: sampling a
// range that spans several shards (including partially covered boundary
// shards) draws every key with its multiplicity over the range's count,
// the Static reference's law, exactly.
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
			// From inside the second shard to inside the fifth: two
			// partially covered shards plus fully covered middles.
			checkShards(t, string(dist), &c.engine, keys, unitWeight, quantileBounds(sorted, 0, 0.25, 0.5, 0.8, 1))
		})
	}
}

// TestConcurrentUniformityPerKey checks the finest granularity: over a
// small multiset split five ways so shard occupancies differ, every stored
// occurrence is equally likely.
func TestConcurrentUniformityPerKey(t *testing.T) {
	// 200 distinct integer keys with multiplicities 1..4.
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
	checkShards(t, "per key", &c.engine, all, unitWeight, []float64{0, 37, 80, 81, 150, 199})
}

// TestSampleManyUniformity: the batch path draws with the same exact law
// (checkSplitExact drives SampleManyAppend as well as Sample).
func TestSampleManyUniformity(t *testing.T) {
	rng := xrand.New(107)
	keys := workload.Keys(workload.Uniform, 25_000, rng)
	c, err := NewFromSorted(keys, 6)
	if err != nil {
		t.Fatal(err)
	}
	checkShards(t, "batch", &c.engine, keys, unitWeight, quantileBounds(keys, 0.1, 0.9))
}

// TestParallelSampleUniformity: a range spread over all eight shards.
func TestParallelSampleUniformity(t *testing.T) {
	rng := xrand.New(109)
	keys := workload.Keys(workload.Uniform, 25_000, rng)
	c, err := NewFromSorted(keys, 8)
	if err != nil {
		t.Fatal(err)
	}
	checkShards(t, "eight shards", &c.engine, keys, unitWeight, []float64{keys[100], keys[len(keys)-100]})
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
