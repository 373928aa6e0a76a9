package alias

import (
	"fmt"
	"math"
	"math/big"
	"testing"

	"github.com/irsgo/irs/internal/xrand/xrandtest"
)

// A draw picks column j with probability 1/n and returns j iff
// Float64() < prob[j], else alias[j]. Float64 returns m·2⁻⁵³ for a uniform
// m < 2⁵³, so the test passes for exactly ⌈prob[j]·2⁵³⌉ of the 2⁵³ grid
// points (prob[j] ≤ 1, and prob[j]·2⁵³ is exact). tableLaw sums that over
// the columns: the table's exact law, a rational with denominator n·2⁵³.
func tableLaw(t *Table) []*big.Rat {
	n := len(t.prob)
	law := make([]*big.Rat, n)
	for i := range law {
		law[i] = new(big.Rat)
	}
	for j, p := range t.prob {
		c := uint64(math.Ceil(min(p, 1) * xrandtest.Grid))
		col := new(big.Rat).SetFrac64(1, int64(n))
		law[j].Add(law[j], new(big.Rat).Mul(col, xrandtest.Prob(c)))
		law[t.alias[j]].Add(law[t.alias[j]], new(big.Rat).Mul(col, xrandtest.Prob(xrandtest.Grid-c)))
	}
	return law
}

// exactBound is the largest |law[i] − w[i]/Σw| allowed, in units of 2⁻⁵³.
// Rounding a column's threshold up to the 53-bit grid moves the column's
// split by under one unit, and a column counts 1/n, so an outcome's own
// column and the columns aliased to it move it by under one unit in all;
// the build's float scaling and donation chain add rounding of the same
// order. The cases below measure at most half a unit, the shard engine's
// splits (internal/shard) at most 1.2.
const exactBound = 4

// weightCases are the weight vectors the exact checks run on.
var weightCases = map[string][]float64{
	"mixed":        {1, 2, 3, 4, 10, 0.5},
	"subnormals":   {5e-324, 1, 3e-310, 0, 2, math.SmallestNonzeroFloat64 * 7},
	"1e300":        {1e300, 3e300, 1, 0, 2e300},
	"2^53 ratio":   {1, 0x1p53, 1, 0x1p53 - 1},
	"1e12 ratio":   {1, 1e12},
	"one":          {3.5},
	"random 1..12": {7, 3, 11, 1, 12, 5, 9, 2, 8, 4, 10, 6},
}

// checkExact builds a table for w and checks its exact law against
// w[i]/Σw: zero weights exactly never, every other outcome within
// exactBound units, and Draw itself — driven through every column and both
// sides of its threshold — has exactly the table's law.
func checkExact(t *testing.T, w []float64) []*big.Rat {
	t.Helper()
	tbl, err := New(w)
	if err != nil {
		t.Fatal(err)
	}
	law := tableLaw(tbl)
	sum, total := new(big.Rat), new(big.Rat)
	for _, x := range w {
		total.Add(total, xrandtest.Exact(x))
	}
	for i, p := range law {
		sum.Add(sum, p)
		want := new(big.Rat).Quo(xrandtest.Exact(w[i]), total)
		if w[i] == 0 && p.Sign() != 0 {
			t.Fatalf("%v: zero weight %d has probability %v", w, i, p)
		}
		if d := xrandtest.Ulps(p, want); d > exactBound {
			t.Fatalf("%v: outcome %d has probability %s, want %s: off by %.3g·2⁻⁵³", w, i, p.FloatString(20), want.FloatString(20), d)
		}
	}
	if sum.Cmp(big.NewRat(1, 1)) != 0 {
		t.Fatalf("%v: probabilities sum to %v", w, sum)
	}
	driven := xrandtest.AliasLaw(len(w), tbl.Draw)
	for i, p := range law {
		q, ok := driven[i]
		if !ok {
			q = new(big.Rat)
		}
		if p.Cmp(q) != 0 {
			t.Fatalf("%v: Draw returns %d with probability %v, the table says %v", w, i, q, p)
		}
	}
	return law
}

// TestDistributionMatchesWeights: every weight vector's table draws each
// outcome with its weight's share, exactly up to exactBound units of
// 2⁻⁵³ — zeros, subnormals, 1e300 and ratios of 2⁵³ included (more zeros
// in TestZeroWeightNeverDrawn).
func TestDistributionMatchesWeights(t *testing.T) {
	for name, w := range weightCases {
		t.Run(name, func(t *testing.T) { checkExact(t, w) })
	}
}

// TestUniformWeights: equal weights give every outcome exactly 1/n.
func TestUniformWeights(t *testing.T) {
	for _, n := range []int{1, 2, 3, 64, 100} {
		w := make([]float64, n)
		for i := range w {
			w[i] = 1
		}
		for i, p := range checkExact(t, w) {
			if p.Cmp(big.NewRat(1, int64(n))) != 0 {
				t.Fatalf("n = %d: outcome %d has probability %v", n, i, p)
			}
		}
	}
}

func ExampleTable_Draw() {
	tbl, _ := New([]float64{1, 3})
	for i, p := range tableLaw(tbl) {
		fmt.Println(i, p)
	}
	// Output:
	// 0 1/4
	// 1 3/4
}
