package shard

import (
	"cmp"
	"fmt"
	"math"
	"math/big"
	"testing"

	"github.com/irsgo/irs/internal/weighted"
	"github.com/irsgo/irs/internal/xrand"
	"github.com/irsgo/irs/internal/xrand/xrandtest"
)

// The engine answers a one-sample query by one alias draw over the
// overlapping shards' masses (internal/split) and then one draw inside the
// chosen shard. The in-shard draw is exact on its own — uniform over the
// shard's occurrences (internal/chunks' partition check) or within a few
// units of 2⁻⁵³ of weight-proportional (internal/weighted's exact law) —
// so a sample is exact over the whole range iff shard i is chosen with
// probability M_i/M, M_i being the shard's in-range count or weight.
// checkSplitExact drives the real engine, Sample and SampleManyAppend,
// through every alias column and both sides of every threshold
// (xrandtest.AliasLaw), reads the shard each answer routes to, and checks
// that law exactly in big.Rat: within splitBound units of 2⁻⁵³ of the
// masses the engine prepared, which are the exact in-range sums up to
// float rounding. Then P(shard i)·(1/count_i) = 1/count, or
// P(shard i)·(w/M_i) = w/M, up to the float inputs.

// splitBound is internal/alias' bound on an alias table's law, in units
// of 2⁻⁵³.
const splitBound = 4

// checkSplitExact checks the engine's shard law over [lo, hi] against the
// items the test stored, weighed by weight.
func checkSplitExact[K cmp.Ordered, I any, B Backend[K, I]](t *testing.T, name string, c *engine[K, I, B], items []I, weight func(I) float64, lo, hi K) {
	t.Helper()
	if hi < lo {
		return
	}
	// The exact in-range mass and count of each shard, from the items. A
	// big.Float of 2200 bits holds any sum of fewer than 2⁵⁰ float64s
	// exactly (their bits span 2098 places).
	sums := make([]*big.Float, len(c.shards))
	counts := make([]int, len(c.shards))
	for i := range sums {
		sums[i] = new(big.Float).SetPrec(2200)
	}
	var w big.Float
	for _, it := range items {
		if k := c.ops.keyOf(it); k >= lo && k <= hi {
			i := c.route(k)
			sums[i].Add(sums[i], w.SetFloat64(weight(it)))
			counts[i]++
		}
	}
	exact := make([]*big.Rat, len(c.shards))
	for i, sum := range sums {
		exact[i], _ = sum.Rat(nil)
	}
	// The masses the engine prepares, shard by shard.
	masses := make([]float64, len(c.shards))
	prepared := new(big.Rat)
	columns := 0
	for i, sh := range c.shards {
		n, m := sh.b.Prepare(c.ops.newRun(), lo, hi)
		if n != counts[i] {
			t.Fatalf("%s [%v, %v]: shard %d prepares %d keys, holds %d", name, lo, hi, i, n, counts[i])
		}
		// Float summation of n non-negative terms is off by at most
		// (n−1)·2⁻⁵³ relative, to first order; allow n·2⁻⁵³.
		diff := new(big.Rat).Sub(xrandtest.Exact(m), exact[i])
		slack := new(big.Rat).Mul(exact[i], new(big.Rat).SetFrac64(int64(n), xrandtest.Grid))
		if diff.Abs(diff).Cmp(slack) > 0 {
			t.Fatalf("%s [%v, %v]: shard %d prepares mass %v, the items sum to %v", name, lo, hi, i, m, exact[i].FloatString(30))
		}
		masses[i] = m
		prepared.Add(prepared, xrandtest.Exact(m))
		if m > 0 {
			columns++
		}
	}
	if columns == 0 {
		return
	}
	for _, batch := range []bool{false, true} {
		law := xrandtest.AliasLaw(columns, func(r *xrand.RNG) int {
			var out []K
			var err error
			if batch {
				out, _, err = c.SampleManyAppend(nil, nil, []Query[K]{{Lo: lo, Hi: hi, T: 1}}, r)
			} else {
				out, err = c.SampleAppend(nil, lo, hi, 1, r)
			}
			if err != nil || len(out) != 1 {
				t.Fatalf("%s [%v, %v]: drew %v, %v", name, lo, hi, out, err)
			}
			return c.route(out[0])
		})
		for i, m := range masses {
			p, ok := law[i]
			if !ok {
				p = new(big.Rat)
			}
			if m == 0 {
				if p.Sign() != 0 {
					t.Fatalf("%s [%v, %v] batch=%v: massless shard %d drawn with probability %v", name, lo, hi, batch, i, p)
				}
				continue
			}
			want := new(big.Rat).Quo(xrandtest.Exact(m), prepared)
			if d := xrandtest.Ulps(p, want); d > splitBound {
				t.Fatalf("%s [%v, %v] batch=%v: shard %d drawn with probability %s, its mass share is %s: off by %.3g·2⁻⁵³",
					name, lo, hi, batch, i, p.FloatString(24), want.FloatString(24), d)
			}
		}
	}
}

func unitWeight[K any](K) float64                           { return 1 }
func itemWeight[K cmp.Ordered](it weighted.Item[K]) float64 { return it.Weight }

// TestEngineSplitExact: on engines of five shards split at 0, 10, 20, 30 —
// one shard empty, and in the weighted engine one holding only zero
// weights — every query range over a grid of bounds, infinities and −0
// included, chooses each shard with its exact mass share.
func TestEngineSplitExact(t *testing.T) {
	splits := []float64{0, 10, 20, 30}
	bounds := []float64{math.Inf(-1), -5, -1, math.Copysign(0, -1), 3, 9.5, 10, 15, 20, 25, 29, 30, 31, math.Inf(1)}

	keys := []float64{math.Inf(-1), -5, -5, -5, math.Copysign(0, -1), 0, 3, 3, 9.5, 20, 20, 20, 20, 25, 30, 31, math.Inf(1)}
	c, err := NewFromSplits(splits)
	if err != nil {
		t.Fatal(err)
	}
	c.InsertBatch(keys)

	items := []weighted.Item[float64]{
		{Key: -5, Weight: 1}, {Key: -5, Weight: 2}, {Key: -1, Weight: 0}, // shard 0
		{Key: 0, Weight: 0}, {Key: 3, Weight: 0}, // shard 1: massless
		// shard 2: empty
		{Key: 20, Weight: 5e-324}, {Key: 25, Weight: 3}, {Key: 25, Weight: 0x1p53}, // shard 3
		{Key: 30, Weight: weighted.MaxWeight / 2}, {Key: 31, Weight: 1}, {Key: math.Inf(1), Weight: 0.5}, // shard 4
	}
	w, err := NewWeightedFromSplits(splits, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.InsertBatch(items); err != nil {
		t.Fatal(err)
	}
	for _, lo := range bounds {
		for _, hi := range bounds {
			checkSplitExact(t, "unweighted", &c.engine, keys, unitWeight, lo, hi)
			checkSplitExact(t, "weighted", &w.engine, items, itemWeight, lo, hi)
		}
	}
}

// checkShards runs checkSplitExact over every range between two of the
// given bounds, labelling failures with name.
func checkShards[K cmp.Ordered, I any, B Backend[K, I]](t *testing.T, name string, c *engine[K, I, B], items []I, weight func(I) float64, bounds []K) {
	t.Helper()
	for i, lo := range bounds {
		for _, hi := range bounds[i:] {
			checkSplitExact(t, fmt.Sprintf("%s %d shards", name, len(c.shards)), c, items, weight, lo, hi)
		}
	}
}
