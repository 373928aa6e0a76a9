package weighted

import (
	"math"
	"sync"
	"testing"

	"github.com/irsgo/irs/internal/xrand"
)

// TestTreapChurnUniformity is the dynamic statistical check: after a long
// interleaved insert/delete/UpdateWeight workload — not just a static
// build — the treap's sampling distribution must still match the exact
// weight proportions of the surviving items. Keys are kept unique so the
// model knows exactly which occurrence an UpdateWeight touched.
func TestTreapChurnUniformity(t *testing.T) {
	r := xrand.New(501)
	tr := NewTreap[int](502)
	model := map[int]float64{}
	var present []int // keys currently stored, for O(1) random choice
	idx := map[int]int{}

	add := func(k int, w float64) {
		if err := tr.Insert(k, w); err != nil {
			t.Fatal(err)
		}
		model[k] = w
		idx[k] = len(present)
		present = append(present, k)
	}
	remove := func(k int) {
		if !tr.Delete(k) {
			t.Fatalf("Delete(%d) failed for a present key", k)
		}
		delete(model, k)
		i := idx[k]
		last := present[len(present)-1]
		present[i] = last
		idx[last] = i
		present = present[:len(present)-1]
		delete(idx, k)
	}

	const keySpan = 1 << 14
	for op := 0; op < 30_000; op++ {
		switch {
		case len(present) == 0 || r.Bernoulli(0.35):
			// Insert a not-currently-present key; ~4% zero weights keep the
			// never-sample-zero property under churn too.
			k := r.Intn(keySpan)
			if _, ok := model[k]; ok {
				continue
			}
			w := math.Exp(r.Float64() * 5)
			if r.Bernoulli(0.04) {
				w = 0
			}
			add(k, w)
		case r.Bernoulli(0.45):
			remove(present[r.Intn(len(present))])
		default:
			k := present[r.Intn(len(present))]
			w := math.Exp(r.Float64() * 5)
			if r.Bernoulli(0.04) {
				w = 0
			}
			ok, err := tr.UpdateWeight(k, w)
			if err != nil || !ok {
				t.Fatalf("UpdateWeight(%d): %v %v", k, ok, err)
			}
			model[k] = w
		}
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != len(model) {
		t.Fatalf("Len = %d, want %d", tr.Len(), len(model))
	}

	lo, hi := keySpan/8, (7*keySpan)/8
	keyW := map[int]float64{}
	total := 0.0
	for k, w := range model {
		if k >= lo && k <= hi {
			keyW[k] = w
			total += w
		}
	}
	if got := tr.TotalWeight(lo, hi); math.Abs(got-total) > 1e-6*total {
		t.Fatalf("TotalWeight = %v, want %v", got, total)
	}

	const draws = 300_000
	out, err := tr.SampleAppend(make([]int, 0, draws), lo, hi, draws, r)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[int]int{}
	for _, k := range out {
		w, ok := keyW[k]
		if !ok || w <= 0 {
			t.Fatalf("sampled key %d with model weight %g", k, w)
		}
		counts[k]++
	}
	chi2, df := 0.0, 0
	for k, w := range keyW {
		exp := draws * w / total
		if exp < 10 {
			continue
		}
		d := float64(counts[k]) - exp
		chi2 += d * d / exp
		df++
	}
	// Wilson–Hilferty-style generous bound, as in the static agreement test.
	if lim := float64(df) + 5*math.Sqrt(2*float64(df)); chi2 > lim {
		t.Fatalf("post-churn chi-square %.1f over %d cells (limit %.1f)", chi2, df, lim)
	}
}

// TestTreapFromSortedItemsMatchesIncremental: the O(n) spine build must
// produce a valid treap with the same contents and distribution as the
// incremental constructor.
func TestTreapFromSortedItemsMatchesIncremental(t *testing.T) {
	items := make([]Item[int], 0, 4000)
	r := xrand.New(511)
	key := 0
	for len(items) < cap(items) {
		key += r.Intn(3) // duplicates included
		w := math.Exp(r.Float64() * 4)
		if r.Bernoulli(0.05) {
			w = 0
		}
		items = append(items, Item[int]{Key: key, Weight: w})
	}
	fast, err := NewTreapFromSortedItems(512, items)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := NewTreapFromItems(513, items)
	if err != nil {
		t.Fatal(err)
	}
	if err := fast.Validate(); err != nil {
		t.Fatal(err)
	}
	if fast.Len() != slow.Len() {
		t.Fatalf("Len: %d vs %d", fast.Len(), slow.Len())
	}
	if got, want := fast.AppendItems(nil), slow.AppendItems(nil); len(got) != len(want) {
		t.Fatalf("AppendItems: %d vs %d items", len(got), len(want))
	} else {
		for i := range got {
			if got[i].Key != want[i].Key {
				t.Fatalf("item %d: key %d vs %d", i, got[i].Key, want[i].Key)
			}
		}
	}
	for trial := 0; trial < 100; trial++ {
		lo, hi := r.Intn(key+1), r.Intn(key+1)
		if lo > hi {
			lo, hi = hi, lo
		}
		if a, b := fast.Count(lo, hi), slow.Count(lo, hi); a != b {
			t.Fatalf("Count(%d,%d): %d vs %d", lo, hi, a, b)
		}
		a, b := fast.TotalWeight(lo, hi), slow.TotalWeight(lo, hi)
		if math.Abs(a-b) > 1e-9*(math.Abs(b)+1) {
			t.Fatalf("TotalWeight(%d,%d): %g vs %g", lo, hi, a, b)
		}
	}
	mn, ok := fast.MinKey()
	if !ok || mn != items[0].Key {
		t.Fatalf("MinKey = %d,%v", mn, ok)
	}
	mx, ok := fast.MaxKey()
	if !ok || mx != items[len(items)-1].Key {
		t.Fatalf("MaxKey = %d,%v", mx, ok)
	}

	// Error paths.
	if _, err := NewTreapFromSortedItems(514, []Item[int]{{2, 1}, {1, 1}}); err != ErrUnsortedItems {
		t.Fatalf("unsorted: err = %v", err)
	}
	if _, err := NewTreapFromSortedItems(515, []Item[int]{{1, -1}}); err != ErrInvalidWeight {
		t.Fatalf("bad weight: err = %v", err)
	}
	empty, err := NewTreapFromSortedItems[int](516, nil)
	if err != nil || empty.Len() != 0 {
		t.Fatalf("empty build: %v %d", err, empty.Len())
	}
	if _, ok := empty.MinKey(); ok {
		t.Fatal("MinKey on empty")
	}
}

// TestTreapConcurrentReaders exercises the read-only query contract under
// the race detector: many goroutines sampling, counting, and exporting from
// one treap through their own runs, with no writer.
func TestTreapConcurrentReaders(t *testing.T) {
	items := makeItems(20_000, 521)
	tr, err := NewTreapFromItems(522, items)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := xrand.New(uint64(523 + g))
			var run TreapRun[int]
			buf := make([]int, 0, 64)
			for i := 0; i < 200; i++ {
				lo := r.Intn(10_000)
				hi := lo + r.Intn(10_000)
				tr.InitRun(&run, lo, hi)
				if run.Empty() || run.Weight() <= 0 {
					continue // empty or zero-weight slice
				}
				buf = buf[:0]
				for range 64 {
					buf = append(buf, run.Sample(r))
				}
				for _, k := range buf {
					if k < lo || k > hi {
						t.Errorf("sample %d outside [%d, %d]", k, lo, hi)
						return
					}
				}
				// The draw succeeded, so the range must hold keys with
				// positive total weight (no writer runs concurrently).
				if c, w := tr.RangeStats(lo, hi); c == 0 || w <= 0 {
					t.Errorf("RangeStats(%d, %d) = %d, %g after a successful draw", lo, hi, c, w)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestTreapAppendRange pins the read-only range export.
func TestTreapAppendRange(t *testing.T) {
	tr := NewTreap[int](531)
	for _, k := range []int{5, 3, 9, 3, 7, 1} {
		if err := tr.Insert(k, float64(k)); err != nil {
			t.Fatal(err)
		}
	}
	got := tr.AppendRange(nil, 3, 7)
	want := []int{3, 3, 5, 7}
	if len(got) != len(want) {
		t.Fatalf("AppendRange = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("AppendRange = %v, want %v", got, want)
		}
	}
	if out := tr.AppendRange(nil, 7, 3); len(out) != 0 {
		t.Fatalf("inverted range returned %v", out)
	}
}
