package weighted

import (
	"fmt"
	"math/big"
	"slices"
	"testing"

	"github.com/irsgo/irs/internal/xrand"
	"github.com/irsgo/irs/internal/xrand/xrandtest"
)

// TreapRun.Sample takes one Float64 to pick a span — the first whose
// cumulative weight exceeds u·total — and, for a whole-subtree span, a
// second to descend it by cumulative weight. Both decisions are searches
// over ascending sums, so each answer holds on one run of the 2⁵³-point
// Float64 grid; xrandtest.Steps finds the runs by bisection, driving the
// real Sample, and counting grid points gives the exact law.

// lawBound is the largest |P(k) − w(k)/W| allowed, in units of 2⁻⁵³. The
// grid rounds each decision by under one unit, and the float prefix and
// subtree sums the searches compare against are off by a few ulps each.
// A drift pocket — a few grid points at a subtree's upper edge that the
// descent's clamp sends elsewhere — is of the same size. The cases here
// measure at most two units.
const lawBound = 4

// runLaw returns the exact law of run.Sample, keyed by key. keys lists the
// tree's distinct keys in order.
func runLaw(run *TreapRun[int], keys []int) map[int]*big.Rat {
	rank := func(k int) int { i, _ := slices.BinarySearch(keys, k); return i }
	law := map[int]*big.Rat{}
	add := func(k int, p *big.Rat) {
		if q, ok := law[k]; ok {
			p.Add(p, q)
		}
		law[k] = p
	}
	// A span is named by the keys its descent yields at both ends of the
	// grid, its first and last positive-weight keys. Spans come in key
	// order, so two spans share a name only if all their positive weight
	// sits on one key, and then which of them answers does not matter.
	names := map[[2]int]int{}
	spans := xrandtest.Steps(func(m uint64) int {
		name := [2]int{
			run.Sample(xrandtest.Yielding(xrandtest.Unit(m), xrandtest.Unit(0))),
			run.Sample(xrandtest.Yielding(xrandtest.Unit(m), xrandtest.Unit(xrandtest.Grid-1))),
		}
		if _, ok := names[name]; !ok {
			names[name] = len(names)
		}
		return names[name]
	})
	for _, s := range spans {
		p := xrandtest.Prob(s.To - s.From)
		for _, d := range xrandtest.Steps(func(m uint64) int {
			return rank(run.Sample(xrandtest.Yielding(xrandtest.Unit(s.From), xrandtest.Unit(m))))
		}) {
			add(keys[d.Value], new(big.Rat).Mul(p, xrandtest.Prob(d.To-d.From)))
		}
	}
	return law
}

// wantLaw returns each in-range key's weight share w/W, exactly (a key
// stored several times has the sum of its occurrences' shares).
func wantLaw(items []Item[int], lo, hi int) map[int]*big.Rat {
	total := new(big.Rat)
	for _, it := range items {
		if it.Key >= lo && it.Key <= hi {
			total.Add(total, xrandtest.Exact(it.Weight))
		}
	}
	want := map[int]*big.Rat{}
	for _, it := range items {
		if it.Key >= lo && it.Key <= hi {
			p := new(big.Rat).Quo(xrandtest.Exact(it.Weight), total)
			if q, ok := want[it.Key]; ok {
				p.Add(p, q)
			}
			want[it.Key] = p
		}
	}
	return want
}

// checkLaw compares an exact law with the weight shares: a zero-weight key
// (or a key out of range) is never drawn, the law sums to one, and every
// key is within lawBound units.
func checkLaw(t *testing.T, name string, got, want map[int]*big.Rat) {
	t.Helper()
	sum := new(big.Rat)
	for k, p := range got {
		sum.Add(sum, p)
		w, ok := want[k]
		if !ok || w.Sign() == 0 {
			t.Fatalf("%s: key %d (weight share %v) is drawn with probability %v", name, k, w, p)
		}
	}
	if sum.Cmp(big.NewRat(1, 1)) != 0 {
		t.Fatalf("%s: the law sums to %v", name, sum)
	}
	for k, w := range want {
		p, ok := got[k]
		if !ok {
			p = new(big.Rat)
		}
		if d := xrandtest.Ulps(p, w); d > lawBound {
			t.Fatalf("%s: key %d drawn with probability %s, want %s: off by %.3g·2⁻⁵³", name, k, p.FloatString(24), w.FloatString(24), d)
		}
	}
}

// checkTreap checks the exact law of the treap's run over [lo, hi].
func checkTreap(t *testing.T, name string, tr *Treap[int], items []Item[int], lo, hi int) {
	t.Helper()
	var run TreapRun[int]
	tr.InitRun(&run, lo, hi)
	keys := make([]int, len(items))
	for i, it := range items {
		keys[i] = it.Key
	}
	slices.Sort(keys)
	keys = slices.Compact(keys)
	checkLaw(t, name, runLaw(&run, keys), wantLaw(items, lo, hi))
}

// exactCases are the weight vectors the treap's exact law is checked on,
// keyed 10, 20, 30, ….
var exactCases = map[string][]float64{
	"mixed":      {1, 2, 3, 4, 10, 0},
	"zeros":      {0, 5, 0, 1, 0, 0, 2, 0, 0, 3},
	"subnormals": {5e-324, 1, 3e-310, 0, 2, 7e-323, 1e-300},
	"MaxWeight":  {MaxWeight, 0, MaxWeight / 3, 1, MaxWeight},
	"2^53 ratio": {1, 0x1p53, 1, 0x1p53 - 1, 0},
}

func itemsOf(weights []float64) []Item[int] {
	items := make([]Item[int], len(weights))
	for i, w := range weights {
		items[i] = Item[int]{Key: 10 * (i + 1), Weight: w}
	}
	return items
}

// TestTreapRunExact: for every weight vector, treaps of several shapes
// (incremental and spine builds under different seeds) draw each key with
// its weight share exactly up to lawBound units of 2⁻⁵³, over the full
// range and over every range cut at two keys that leaves positive weight.
// Large trees are TestTreapChurnUniformity's and
// TestTreapMatchesStaticSamplers'.
func TestTreapRunExact(t *testing.T) {
	for name, weights := range exactCases {
		items := itemsOf(weights)
		for seed := range uint64(3) {
			inc, err := NewTreapFromItems(seed, items)
			if err != nil {
				t.Fatal(err)
			}
			spine, err := NewTreapFromSortedItems(seed+100, items)
			if err != nil {
				t.Fatal(err)
			}
			for _, a := range items {
				for _, b := range items {
					if a.Key > b.Key || inc.TotalWeight(a.Key, b.Key) == 0 {
						continue
					}
					label := fmt.Sprintf("%s seed %d [%d, %d]", name, seed, a.Key, b.Key)
					checkTreap(t, label+" incremental", inc, items, a.Key, b.Key)
					checkTreap(t, label+" spine", spine, items, a.Key, b.Key)
				}
			}
		}
	}
}

// TestTreapDriftClampExact covers sampleNode's drift clamp. In a subtree
// whose left leaf weighs 1 and whose root and right side weigh 3·2⁻⁵³
// each, the stored subtree sum rounds to 1 + 8·2⁻⁵³ (exactly 1 + 6·2⁻⁵³),
// so at the top of the grid the descent still holds mass after the right
// side: the clamp must answer. It returns the node in hand when that has
// weight, or restarts in its left subtree at zero — which, when that left
// subtree holds two keys, draws its first one out of order. Each variant's
// law stays within lawBound and never draws a zero weight.
func TestTreapDriftClampExact(t *testing.T) {
	const tiny = 3 * 0x1p-53
	leaf := func(k int, w float64) *wnode[int] { n := &wnode[int]{key: k, weight: w}; n.update(); return n }
	node := func(k int, w float64, l, r *wnode[int]) *wnode[int] {
		n := &wnode[int]{key: k, weight: w, left: l, right: r}
		n.update()
		return n
	}
	for name, right := range map[string]func() *wnode[int]{
		"weighted node":           func() *wnode[int] { return leaf(75, tiny) },
		"massless node, one left": func() *wnode[int] { return node(80, 0, leaf(75, tiny), nil) },
		"massless node, two left": func() *wnode[int] { return node(90, 0, node(80, tiny/3, leaf(75, 2*tiny/3), nil), nil) },
	} {
		sub := node(50, tiny, leaf(25, 1), right())
		// Stand the subtree under a massless root so that a run over the
		// whole tree holds it as one span, and sampleNode descends it.
		tr := &Treap[int]{root: node(100, 0, sub, nil), rng: xrand.New(1)}
		tr.n = tr.root.size
		var items []Item[int]
		tr.VisitItems(func(block []Item[int]) error { items = append(items, block...); return nil })

		// The precondition: at the top grid point the descent, after
		// subtracting the left leaf and the root, holds more than the
		// right side's stored mass.
		x := (1 - 0x1p-53) * sub.wsum
		if x-sub.left.wsum-sub.weight < sub.right.wsum {
			t.Fatalf("%s: no overshoot: the tree does not reach the clamp", name)
		}
		checkTreap(t, name, tr, items, 0, 100)
	}
}

// fenwickLaw returns the exact law of the Fenwick sampler over [lo, hi]:
// one Float64 and an inverse-CDF search.
func fenwickLaw(f *Fenwick[int], lo, hi int) map[int]*big.Rat {
	law := map[int]*big.Rat{}
	for _, s := range xrandtest.Steps(func(m uint64) int {
		out, err := f.SampleAppend(nil, lo, hi, 1, xrandtest.Yielding(xrandtest.Unit(m)))
		if err != nil {
			panic(err)
		}
		return out[0]
	}) {
		p := xrandtest.Prob(s.To - s.From)
		if q, ok := law[s.Value]; ok {
			p.Add(p, q)
		}
		law[s.Value] = p
	}
	return law
}
