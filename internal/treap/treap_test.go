package treap

import (
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"github.com/irsgo/irs/internal/xrand"
	"github.com/irsgo/irs/internal/xrand/xrandtest"
)

func TestEmpty(t *testing.T) {
	tr := New[int](1)
	if tr.Len() != 0 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if tr.Contains(5) {
		t.Fatal("empty tree Contains(5)")
	}
	if tr.Delete(5) {
		t.Fatal("empty tree Delete(5) = true")
	}
	if got := tr.Count(0, 100); got != 0 {
		t.Fatalf("Count = %d", got)
	}
	if _, ok := tr.SampleAppend(nil, 0, 100, 3, xrand.New(2)); ok {
		t.Fatal("SampleAppend on empty range returned ok")
	}
}

func TestInsertContainsDelete(t *testing.T) {
	tr := New[int](3)
	for _, k := range []int{5, 3, 8, 1, 9, 7} {
		tr.Insert(k)
	}
	if tr.Len() != 6 {
		t.Fatalf("Len = %d", tr.Len())
	}
	for _, k := range []int{5, 3, 8, 1, 9, 7} {
		if !tr.Contains(k) {
			t.Fatalf("Contains(%d) = false", k)
		}
	}
	if tr.Contains(4) {
		t.Fatal("Contains(4) = true")
	}
	if !tr.Delete(5) {
		t.Fatal("Delete(5) = false")
	}
	if tr.Contains(5) {
		t.Fatal("Contains(5) after delete")
	}
	if tr.Len() != 5 {
		t.Fatalf("Len after delete = %d", tr.Len())
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDuplicates(t *testing.T) {
	tr := New[int](4)
	for i := 0; i < 5; i++ {
		tr.Insert(7)
	}
	if tr.Len() != 5 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if got := tr.Count(7, 7); got != 5 {
		t.Fatalf("Count(7,7) = %d", got)
	}
	for i := 4; i >= 0; i-- {
		if !tr.Delete(7) {
			t.Fatalf("Delete #%d failed", 5-i)
		}
		if tr.Len() != i {
			t.Fatalf("Len = %d, want %d", tr.Len(), i)
		}
	}
	if tr.Delete(7) {
		t.Fatal("Delete on empty returned true")
	}
}

func TestRankSelect(t *testing.T) {
	tr := New[int](5)
	keys := []int{10, 20, 20, 30, 40}
	for _, k := range keys {
		tr.Insert(k)
	}
	if got := tr.RankLower(20); got != 1 {
		t.Fatalf("RankLower(20) = %d", got)
	}
	if got := tr.RankUpper(20); got != 3 {
		t.Fatalf("RankUpper(20) = %d", got)
	}
	if got := tr.RankLower(5); got != 0 {
		t.Fatalf("RankLower(5) = %d", got)
	}
	if got := tr.RankUpper(100); got != 5 {
		t.Fatalf("RankUpper(100) = %d", got)
	}
	want := []int{10, 20, 20, 30, 40}
	for i, w := range want {
		if got := tr.Select(i); got != w {
			t.Fatalf("Select(%d) = %d, want %d", i, got, w)
		}
	}
}

func TestSelectPanics(t *testing.T) {
	tr := New[int](6)
	tr.Insert(1)
	for _, i := range []int{-1, 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Select(%d) did not panic", i)
				}
			}()
			tr.Select(i)
		}()
	}
}

func TestCountInverted(t *testing.T) {
	tr := New[int](7)
	tr.Insert(5)
	if got := tr.Count(10, 1); got != 0 {
		t.Fatalf("Count(10,1) = %d", got)
	}
}

// TestAgainstSortedModel runs a random op sequence against a sorted-slice
// model, checking Len, Count, Select, and Keys at every step.
func TestAgainstSortedModel(t *testing.T) {
	r := xrand.New(8)
	tr := New[int](9)
	var model []int
	insertModel := func(k int) {
		i := sort.SearchInts(model, k)
		model = append(model, 0)
		copy(model[i+1:], model[i:])
		model[i] = k
	}
	deleteModel := func(k int) bool {
		i := sort.SearchInts(model, k)
		if i < len(model) && model[i] == k {
			model = append(model[:i], model[i+1:]...)
			return true
		}
		return false
	}
	for op := 0; op < 4000; op++ {
		k := r.Intn(200)
		if r.Bernoulli(0.6) {
			tr.Insert(k)
			insertModel(k)
		} else {
			got := tr.Delete(k)
			want := deleteModel(k)
			if got != want {
				t.Fatalf("op %d: Delete(%d) = %v, want %v", op, k, got, want)
			}
		}
		if tr.Len() != len(model) {
			t.Fatalf("op %d: Len = %d, want %d", op, tr.Len(), len(model))
		}
		if op%97 == 0 {
			if err := tr.Validate(); err != nil {
				t.Fatalf("op %d: %v", op, err)
			}
			lo, hi := r.Intn(200), r.Intn(200)
			if lo > hi {
				lo, hi = hi, lo
			}
			want := sort.SearchInts(model, hi+1) - sort.SearchInts(model, lo)
			if got := tr.Count(lo, hi); got != want {
				t.Fatalf("op %d: Count(%d,%d) = %d, want %d", op, lo, hi, got, want)
			}
			if len(model) > 0 {
				i := r.Intn(len(model))
				if got := tr.Select(i); got != model[i] {
					t.Fatalf("op %d: Select(%d) = %d, want %d", op, i, got, model[i])
				}
			}
			keys := tr.Keys(nil)
			if len(keys) != len(model) {
				t.Fatalf("op %d: Keys len = %d, want %d", op, len(keys), len(model))
			}
			for i := range keys {
				if keys[i] != model[i] {
					t.Fatalf("op %d: Keys[%d] = %d, want %d", op, i, keys[i], model[i])
				}
			}
		}
	}
}

func TestSampleBoundsAndMembership(t *testing.T) {
	tr := New[int](10)
	r := xrand.New(11)
	present := map[int]bool{}
	for i := 0; i < 500; i++ {
		k := r.Intn(10000)
		tr.Insert(k)
		present[k] = true
	}
	samples, ok := tr.SampleAppend(nil, 2000, 8000, 300, r)
	if !ok {
		t.Fatal("SampleAppend failed on non-empty range")
	}
	if len(samples) != 300 {
		t.Fatalf("got %d samples", len(samples))
	}
	for _, s := range samples {
		if s < 2000 || s > 8000 {
			t.Fatalf("sample %d outside [2000,8000]", s)
		}
		if !present[s] {
			t.Fatalf("sample %d not in dataset", s)
		}
	}
}

// TestSampleUniformity: a sample is Select(a + Uint64n(count)), so
// driving that one bounded draw through every value it can take returns
// each in-range key exactly once — the draw is exactly uniform.
func TestSampleUniformity(t *testing.T) {
	tr := New[int](12)
	const n = 50
	for i := 0; i < n; i++ {
		tr.Insert(i)
		tr.Insert(i) // each key stored twice
	}
	got, ok := xrandtest.ByIndex(uint64(tr.Count(10, 39)), func(r *xrand.RNG) int {
		out, ok := tr.SampleAppend(nil, 10, 39, 1, r)
		if !ok {
			t.Fatal("sample failed")
		}
		return out[0]
	})
	var want []int
	for k := 10; k <= 39; k++ {
		want = append(want, k, k)
	}
	if !ok || !slices.Equal(got, want) {
		t.Fatalf("the bounded draw's values give %v (one output each: %v), want each occurrence once", got, ok)
	}
}

func TestStringKeys(t *testing.T) {
	tr := New[string](14)
	for _, s := range []string{"pear", "apple", "fig", "banana"} {
		tr.Insert(s)
	}
	if got := tr.Select(0); got != "apple" {
		t.Fatalf("Select(0) = %q", got)
	}
	if got := tr.Count("b", "g"); got != 2 { // banana, fig
		t.Fatalf("Count(b,g) = %d", got)
	}
}

// TestPropertyKeysSorted: inserting any byte slice yields sorted Keys.
func TestPropertyKeysSorted(t *testing.T) {
	check := func(raw []uint16) bool {
		tr := New[uint16](15)
		for _, k := range raw {
			tr.Insert(k)
		}
		keys := tr.Keys(nil)
		if len(keys) != len(raw) {
			return false
		}
		for i := 1; i < len(keys); i++ {
			if keys[i-1] > keys[i] {
				return false
			}
		}
		return tr.Validate() == nil
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkInsert(b *testing.B) {
	tr := New[float64](16)
	r := xrand.New(17)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Insert(r.Float64())
	}
}

func BenchmarkSample64(b *testing.B) {
	tr := New[float64](18)
	r := xrand.New(19)
	for i := 0; i < 1<<20; i++ {
		tr.Insert(r.Float64())
	}
	buf := make([]float64, 0, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = buf[:0]
		buf, _ = tr.SampleAppend(buf, 0.25, 0.75, 64, r)
	}
}
