package chunks

import (
	"sort"
	"testing"

	"github.com/irsgo/irs/internal/xrand"
)

func TestRankAndSelectInPackage(t *testing.T) {
	keys := []int{10, 20, 20, 30, 40, 50}
	l, err := NewFromSorted(keys)
	if err != nil {
		t.Fatal(err)
	}
	if got := l.RankLower(20); got != 1 {
		t.Fatalf("RankLower(20) = %d", got)
	}
	if got := l.RankUpper(20); got != 3 {
		t.Fatalf("RankUpper(20) = %d", got)
	}
	if got := l.RankLower(5); got != 0 {
		t.Fatalf("RankLower(5) = %d", got)
	}
	if got := l.RankLower(99); got != 6 {
		t.Fatalf("RankLower(99) = %d", got)
	}
	if got := l.RankUpper(99); got != 6 {
		t.Fatalf("RankUpper(99) = %d", got)
	}
	for i, want := range keys {
		if got := l.SelectRank(i); got != want {
			t.Fatalf("SelectRank(%d) = %d, want %d", i, got, want)
		}
	}
}

func TestSelectRankLargeCrossCheck(t *testing.T) {
	r := xrand.New(1)
	var keys []int
	for i := 0; i < 60000; i++ {
		keys = append(keys, r.Intn(1000000))
	}
	sort.Ints(keys)
	l, err := NewFromSorted(keys)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 2000; trial++ {
		i := r.Intn(len(keys))
		if got := l.SelectRank(i); got != keys[i] {
			t.Fatalf("SelectRank(%d) = %d, want %d", i, got, keys[i])
		}
	}
}

func TestAppendRangeInPackage(t *testing.T) {
	l, err := NewFromSorted(seq(10000))
	if err != nil {
		t.Fatal(err)
	}
	got := l.AppendRange(nil, 500, 520)
	if len(got) != 21 {
		t.Fatalf("got %d keys", len(got))
	}
	for i, k := range got {
		if k != 500+i {
			t.Fatalf("got[%d] = %d", i, k)
		}
	}
	if got := l.AppendRange(nil, 20000, 30000); len(got) != 0 {
		t.Fatalf("out-of-domain returned %d keys", len(got))
	}
	if got := l.AppendRange(nil, 50, 10); len(got) != 0 {
		t.Fatalf("inverted returned %d keys", len(got))
	}
	// Spanning multiple groups.
	got = l.AppendRange(got[:0], 100, 9900)
	if len(got) != 9801 {
		t.Fatalf("wide range returned %d keys", len(got))
	}
}

func TestSamplePosDistinctIdentifiers(t *testing.T) {
	// All keys identical: SamplePos must still expose distinct positions.
	keys := make([]int, 5000)
	for i := range keys {
		keys[i] = 7
	}
	l, err := NewFromSorted(keys)
	if err != nil {
		t.Fatal(err)
	}
	r := xrand.New(2)
	for _, span := range []struct{ lo, hi int }{{7, 7}, {0, 100}} {
		run := l.NewRun(span.lo, span.hi)
		if run.Empty() {
			t.Fatal("run empty")
		}
		seen := map[uint64]bool{}
		for i := 0; i < 20000; i++ {
			k, p := run.SamplePos(r)
			if k != 7 {
				t.Fatalf("key = %d", k)
			}
			seen[p] = true
		}
		// With 20k draws over 5000 positions, we must see a large fraction
		// of distinct identifiers (coupon collector: ~98%).
		if len(seen) < 4000 {
			t.Fatalf("only %d distinct positions over 20000 draws", len(seen))
		}
	}
}

func TestSamplePosPanicsOnEmpty(t *testing.T) {
	l := New[int]()
	run := l.NewRun(0, 10)
	defer func() {
		if recover() == nil {
			t.Fatal("SamplePos on empty run did not panic")
		}
	}()
	run.SamplePos(xrand.New(3))
}

func TestSampleProbesPanicsOnEmpty(t *testing.T) {
	l := New[int]()
	run := l.NewRun(0, 10)
	defer func() {
		if recover() == nil {
			t.Fatal("SampleProbes on empty run did not panic")
		}
	}()
	run.SampleProbes(xrand.New(4))
}

// TestGroupRebalanceBranches drives deletes through a pinned small s so the
// group borrow/merge/redistribute paths all fire, cross-checked by a model.
func TestGroupRebalanceBranches(t *testing.T) {
	l, err := NewFromSortedWithS(seq(4000), 4)
	if err != nil {
		t.Fatal(err)
	}
	model := seq(4000)
	r := xrand.New(5)
	// Delete clustered stretches to concentrate underflows, which exercises
	// redistribution against full siblings.
	for round := 0; round < 60; round++ {
		start := r.Intn(3000)
		for k := start; k < start+40; k++ {
			got := l.Delete(k)
			i := sort.SearchInts(model, k)
			want := i < len(model) && model[i] == k
			if want {
				model = append(model[:i], model[i+1:]...)
			}
			if got != want {
				t.Fatalf("Delete(%d) = %v, want %v", k, got, want)
			}
		}
		if err := l.Validate(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		// Re-insert a sprinkle to flip between underflow and overflow.
		for j := 0; j < 15; j++ {
			k := r.Intn(4000)
			l.Insert(k)
			i := sort.SearchInts(model, k)
			model = append(model, 0)
			copy(model[i+1:], model[i:])
			model[i] = k
		}
	}
	if l.Len() != len(model) {
		t.Fatalf("Len = %d, want %d", l.Len(), len(model))
	}
	got := l.AppendKeys(nil)
	for i := range got {
		if got[i] != model[i] {
			t.Fatalf("keys[%d] = %d, want %d", i, got[i], model[i])
		}
	}
}

// TestPrevPosEdges exercises lastLE stepping across chunk and group
// boundaries by querying ranges whose hi falls just before boundary keys.
func TestPrevPosEdges(t *testing.T) {
	l, err := NewFromSortedWithS(seq(2000), 4)
	if err != nil {
		t.Fatal(err)
	}
	r := xrand.New(6)
	for trial := 0; trial < 400; trial++ {
		// hi chosen so the first-greater element is often the head of a
		// chunk or group, forcing prevPos to cross boundaries.
		hi := r.Intn(2000)
		lo := hi - r.Intn(50)
		want := hi - lo + 1
		if lo < 0 {
			want += lo
			lo = 0
		}
		if got := l.Count(lo, hi); got != want {
			t.Fatalf("Count(%d,%d) = %d, want %d", lo, hi, got, want)
		}
		run := l.NewRun(lo, hi)
		if run.Empty() {
			t.Fatalf("run [%d,%d] empty", lo, hi)
		}
		for i := 0; i < 5; i++ {
			if v := run.Sample(r); v < lo || v > hi {
				t.Fatalf("sample %d outside [%d,%d]", v, lo, hi)
			}
		}
	}
}

// TestValidateDetectsCorruption makes sure Validate is not vacuous.
func TestValidateDetectsCorruption(t *testing.T) {
	l, err := NewFromSorted(seq(1000))
	if err != nil {
		t.Fatal(err)
	}
	// Reach in and break the order.
	g := &l.groups[0]
	c := g.chunks[0]
	c.keys[0], c.keys[len(c.keys)-1] = c.keys[len(c.keys)-1], c.keys[0]
	if err := l.Validate(); err == nil {
		t.Fatal("Validate accepted out-of-order keys")
	}
	// Restore order, break a count.
	c.keys[0], c.keys[len(c.keys)-1] = c.keys[len(c.keys)-1], c.keys[0]
	g.count++
	if err := l.Validate(); err == nil {
		t.Fatal("Validate accepted a stale group count")
	}
	g.count--
	if err := l.Validate(); err != nil {
		t.Fatalf("restored structure rejected: %v", err)
	}
}
