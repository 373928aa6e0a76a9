package weighted

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"github.com/irsgo/irs/internal/xrand"
)

func TestTreapEmpty(t *testing.T) {
	tr := NewTreap[int](1)
	r := xrand.New(2)
	if tr.Len() != 0 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if _, err := tr.SampleAppend(nil, 0, 10, 1, r); err != ErrEmptyRange {
		t.Fatalf("err = %v", err)
	}
	if tr.Delete(5) {
		t.Fatal("Delete on empty")
	}
	if ok, err := tr.UpdateWeight(5, 1); ok || err != nil {
		t.Fatalf("UpdateWeight on empty: %v %v", ok, err)
	}
	if tr.Count(0, 10) != 0 || tr.TotalWeight(0, 10) != 0 {
		t.Fatal("Count/TotalWeight on empty")
	}
}

func TestTreapInsertValidation(t *testing.T) {
	tr := NewTreap[int](3)
	for _, w := range []float64{-1, math.NaN(), math.Inf(1)} {
		if err := tr.Insert(1, w); err != ErrInvalidWeight {
			t.Fatalf("Insert weight %v: err = %v", w, err)
		}
	}
	if _, err := tr.UpdateWeight(1, -2); err != ErrInvalidWeight {
		t.Fatalf("UpdateWeight err = %v", err)
	}
	if _, err := NewTreapFromItems[int](4, []Item[int]{{1, -1}}); err != ErrInvalidWeight {
		t.Fatalf("FromItems err = %v", err)
	}
}

func TestTreapBasicOps(t *testing.T) {
	tr, err := NewTreapFromItems[int](5, []Item[int]{
		{10, 1}, {20, 2}, {30, 3}, {40, 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 4 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if got := tr.Count(15, 35); got != 2 {
		t.Fatalf("Count = %d", got)
	}
	if got := tr.TotalWeight(15, 35); math.Abs(got-5) > 1e-12 {
		t.Fatalf("TotalWeight = %v", got)
	}
	if !tr.Delete(20) || tr.Len() != 3 {
		t.Fatal("Delete")
	}
	if got := tr.TotalWeight(0, 100); math.Abs(got-8) > 1e-12 {
		t.Fatalf("TotalWeight after delete = %v", got)
	}
	ok, err := tr.UpdateWeight(30, 10)
	if err != nil || !ok {
		t.Fatalf("UpdateWeight: %v %v", ok, err)
	}
	if got := tr.TotalWeight(0, 100); math.Abs(got-15) > 1e-12 {
		t.Fatalf("TotalWeight after update = %v", got)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestTreapProportionalSampling: a treap's draws over a range with a
// zero-weight key follow the weights exactly (up to lawBound units of
// 2⁻⁵³; see exact_test.go), and sampling leaves the tree intact.
func TestTreapProportionalSampling(t *testing.T) {
	items := []Item[int]{{10, 1}, {20, 2}, {30, 3}, {40, 4}, {50, 10}, {60, 0}}
	tr, err := NewTreapFromItems[int](6, items)
	if err != nil {
		t.Fatal(err)
	}
	checkTreap(t, "[20, 60]", tr, items, 20, 60)
	if _, err := tr.SampleAppend(nil, 20, 60, 1000, xrand.New(7)); err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTreapZeroWeightRange(t *testing.T) {
	tr, err := NewTreapFromItems[int](8, []Item[int]{{1, 0}, {2, 0}, {3, 5}})
	if err != nil {
		t.Fatal(err)
	}
	r := xrand.New(9)
	if _, err := tr.SampleAppend(nil, 1, 2, 1, r); err != ErrZeroWeightRange {
		t.Fatalf("err = %v", err)
	}
	if _, err := tr.SampleAppend(nil, 1, 3, -1, r); err != ErrInvalidCount {
		t.Fatalf("err = %v", err)
	}
	if out, err := tr.SampleAppend(nil, 1, 3, 0, r); err != nil || len(out) != 0 {
		t.Fatalf("t=0: %v %v", out, err)
	}
	if _, err := tr.SampleAppend(nil, 3, 1, 1, r); err != ErrEmptyRange {
		t.Fatalf("inverted err = %v", err)
	}
}

// TestTreapAgainstModel runs random insert/delete sequences against a
// slice model. The weight of a key is a deterministic function of the key,
// so duplicate occurrences are interchangeable and the model's choice of
// which occurrence a Delete removes cannot diverge from the treap's.
// (UpdateWeight semantics are covered by the dedicated tests above.)
func TestTreapAgainstModel(t *testing.T) {
	r := xrand.New(10)
	tr := NewTreap[int](11)
	weightOf := func(k int) float64 { return float64(k%13)/2 + 0.25 }
	type entry struct {
		key int
		w   float64
	}
	var model []entry
	for op := 0; op < 4000; op++ {
		k := r.Intn(200)
		if r.Bernoulli(0.6) {
			if err := tr.Insert(k, weightOf(k)); err != nil {
				t.Fatal(err)
			}
			model = append(model, entry{k, weightOf(k)})
		} else {
			got := tr.Delete(k)
			want := false
			for i, e := range model {
				if e.key == k {
					model = append(model[:i], model[i+1:]...)
					want = true
					break
				}
			}
			if got != want {
				t.Fatalf("op %d: Delete(%d) = %v, want %v", op, k, got, want)
			}
		}
		if tr.Len() != len(model) {
			t.Fatalf("op %d: Len = %d, want %d", op, tr.Len(), len(model))
		}
		if op%173 == 0 {
			if err := tr.Validate(); err != nil {
				t.Fatalf("op %d: %v", op, err)
			}
			lo, hi := r.Intn(200), r.Intn(200)
			if lo > hi {
				lo, hi = hi, lo
			}
			wantC, wantW := 0, 0.0
			for _, e := range model {
				if e.key >= lo && e.key <= hi {
					wantC++
					wantW += e.w
				}
			}
			if got := tr.Count(lo, hi); got != wantC {
				t.Fatalf("op %d: Count = %d, want %d", op, got, wantC)
			}
			if got := tr.TotalWeight(lo, hi); math.Abs(got-wantW) > 1e-6 {
				t.Fatalf("op %d: TotalWeight = %v, want %v", op, got, wantW)
			}
		}
	}
}

// TestTreapUpdateWeightOnDuplicates: duplicate-key updates touch exactly
// one occurrence, preserving the total of the others.
func TestTreapUpdateWeightOnDuplicates(t *testing.T) {
	tr := NewTreap[int](12)
	for i := 0; i < 5; i++ {
		if err := tr.Insert(7, 2); err != nil {
			t.Fatal(err)
		}
	}
	ok, err := tr.UpdateWeight(7, 100)
	if err != nil || !ok {
		t.Fatal("update failed")
	}
	if got := tr.TotalWeight(7, 7); math.Abs(got-108) > 1e-12 {
		t.Fatalf("TotalWeight = %v, want 108", got)
	}
}

// TestTreapPropertySampleMembership: samples always come from the range
// and carry positive weight.
func TestTreapPropertySampleMembership(t *testing.T) {
	r := xrand.New(13)
	check := func(raw []uint8) bool {
		tr := NewTreap[int](14)
		positive := map[int]bool{}
		for _, v := range raw {
			k := int(v % 50)
			w := float64(v % 7)
			if tr.Insert(k, w) != nil {
				return false
			}
			if w > 0 {
				positive[k] = true
			}
		}
		out, err := tr.SampleAppend(nil, 10, 40, 20, r)
		if err != nil {
			return err == ErrEmptyRange || err == ErrZeroWeightRange
		}
		for _, k := range out {
			if k < 10 || k > 40 || !positive[k] {
				return false
			}
		}
		return tr.Validate() == nil
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestTreapMatchesStaticSamplers: on identical data (duplicate keys
// included) the dynamic treap and the static Fenwick sampler both draw
// every key with its weight share,
// exactly up to lawBound units of 2⁻⁵³.
func TestTreapMatchesStaticSamplers(t *testing.T) {
	items := makeItems(1500, 15)
	tr, err := NewTreapFromItems(16, items)
	if err != nil {
		t.Fatal(err)
	}
	fen, err := NewFenwick(items)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := 100, 600
	checkTreap(t, "treap", tr, items, lo, hi)
	checkLaw(t, "fenwick", fenwickLaw(fen, lo, hi), wantLaw(items, lo, hi))
}

func TestTreapInterfaceCompliance(t *testing.T) {
	var _ Sampler[int] = NewTreap[int](18)
}

func TestTreapSortedKeysViaCount(t *testing.T) {
	// Insert shuffled, verify order statistics via Count prefix queries.
	r := xrand.New(19)
	tr := NewTreap[int](20)
	keys := r.Perm(500)
	for _, k := range keys {
		if err := tr.Insert(k, 1); err != nil {
			t.Fatal(err)
		}
	}
	sort.Ints(keys)
	for _, probe := range []int{0, 100, 250, 499} {
		if got := tr.Count(0, probe); got != probe+1 {
			t.Fatalf("Count(0,%d) = %d, want %d", probe, got, probe+1)
		}
	}
}

func BenchmarkTreapSample64(b *testing.B) {
	items := makeItems(1<<17, 21)
	tr, err := NewTreapFromItems(22, items)
	if err != nil {
		b.Fatal(err)
	}
	r := xrand.New(23)
	buf := make([]int, 0, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = buf[:0]
		buf, _ = tr.SampleAppend(buf, 1000, 50000, 64, r)
	}
}
