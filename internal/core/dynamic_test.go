package core

import (
	"slices"
	"sort"
	"testing"

	"github.com/irsgo/irs/internal/xrand"
	"github.com/irsgo/irs/internal/xrand/xrandtest"
)

func TestDynamicBasics(t *testing.T) {
	d := NewDynamic[int]()
	r := xrand.New(1)
	if d.Len() != 0 {
		t.Fatalf("Len = %d", d.Len())
	}
	if _, err := d.Sample(0, 10, 1, r); err != ErrEmptyRange {
		t.Fatalf("empty: err = %v", err)
	}
	for i := 0; i < 100; i++ {
		d.Insert(i)
	}
	if d.Len() != 100 {
		t.Fatalf("Len = %d", d.Len())
	}
	if !d.Contains(42) || d.Contains(1000) {
		t.Fatal("Contains wrong")
	}
	if got := d.Count(10, 19); got != 10 {
		t.Fatalf("Count = %d", got)
	}
	if !d.Delete(42) {
		t.Fatal("Delete(42) failed")
	}
	if d.Delete(42) {
		t.Fatal("second Delete(42) succeeded")
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDynamicConstructors(t *testing.T) {
	if _, err := NewDynamicFromSorted([]int{2, 1}); err != ErrUnsorted {
		t.Fatalf("err = %v", err)
	}
	d, err := NewDynamicFromSorted([]int{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 3 {
		t.Fatalf("Len = %d", d.Len())
	}
	d2 := NewDynamicFromUnsorted([]int{3, 1, 2})
	if d2.Len() != 3 || !d2.Contains(2) {
		t.Fatal("FromUnsorted wrong")
	}
}

func TestDynamicSampleArgs(t *testing.T) {
	d := NewDynamicFromUnsorted([]int{1, 2, 3})
	r := xrand.New(2)
	if _, err := d.Sample(1, 3, -1, r); err != ErrInvalidCount {
		t.Fatalf("err = %v", err)
	}
	if out, err := d.Sample(1, 3, 0, r); err != nil || len(out) != 0 {
		t.Fatalf("t=0: %v %v", out, err)
	}
}

func TestDynamicSampleAppendReuses(t *testing.T) {
	keys := make([]int, 100000)
	for i := range keys {
		keys[i] = i
	}
	d, err := NewDynamicFromSorted(keys)
	if err != nil {
		t.Fatal(err)
	}
	r := xrand.New(3)
	buf := make([]int, 0, 64)
	allocs := testing.AllocsPerRun(100, func() {
		buf = buf[:0]
		var err error
		buf, err = d.SampleAppend(buf, 1000, 99000, 64, r)
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state SampleAppend allocated %v/run", allocs)
	}
}

func TestDynamicWORDistinctPositionsWithDuplicates(t *testing.T) {
	// 1000 copies of the same key: WOR must still return t samples (all the
	// same value, distinct positions).
	keys := make([]int, 1000)
	for i := range keys {
		keys[i] = 7
	}
	d, err := NewDynamicFromSorted(keys)
	if err != nil {
		t.Fatal(err)
	}
	r := xrand.New(4)
	out, err := d.SampleWithoutReplacement(0, 100, 50, r)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 50 {
		t.Fatalf("got %d samples, want 50", len(out))
	}
	for _, v := range out {
		if v != 7 {
			t.Fatalf("sample %d", v)
		}
	}
}

func TestDynamicWORUniqueKeys(t *testing.T) {
	keys := make([]int, 10000)
	for i := range keys {
		keys[i] = i
	}
	d, err := NewDynamicFromSorted(keys)
	if err != nil {
		t.Fatal(err)
	}
	r := xrand.New(5)
	out, err := d.SampleWithoutReplacement(1000, 9000, 200, r)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 200 {
		t.Fatalf("got %d", len(out))
	}
	seen := map[int]bool{}
	for _, v := range out {
		if v < 1000 || v > 9000 || seen[v] {
			t.Fatalf("bad or duplicate sample %d", v)
		}
		seen[v] = true
	}
	// Large t (report + Floyd path).
	out, err = d.SampleWithoutReplacement(1000, 1099, 80, r)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 80 {
		t.Fatalf("got %d", len(out))
	}
	seen = map[int]bool{}
	for _, v := range out {
		if seen[v] {
			t.Fatalf("duplicate %d", v)
		}
		seen[v] = true
	}
	// t exceeding the range count returns everything.
	out, err = d.SampleWithoutReplacement(1000, 1009, 50, r)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 10 {
		t.Fatalf("got %d, want the whole range (10)", len(out))
	}
}

func TestDynamicSampleProbes(t *testing.T) {
	keys := make([]int, 100000)
	for i := range keys {
		keys[i] = i
	}
	d, err := NewDynamicFromSorted(keys)
	if err != nil {
		t.Fatal(err)
	}
	r := xrand.New(6)
	out, probes, err := d.SampleProbesAppend(nil, 100, 90000, 1000, r, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1000 || len(probes) != 1000 {
		t.Fatalf("lens %d %d", len(out), len(probes))
	}
	total := 0
	for _, p := range probes {
		if p < 1 {
			t.Fatalf("probe count %d", p)
		}
		total += p
	}
	if avg := float64(total) / 1000; avg > 16 {
		t.Fatalf("average probes %.1f", avg)
	}
}

// TestSamplersAgree: all three Sampler implementations see the same updates
// and must agree exactly on Len and Count, and produce in-range members.
func TestSamplersAgree(t *testing.T) {
	samplers := map[string]Sampler[int]{
		"dynamic": NewDynamic[int](),
		"treap":   NewTreapSampler[int](99),
		"report":  NewReportSampler[int](),
	}
	r := xrand.New(7)
	var model []int
	for op := 0; op < 3000; op++ {
		k := r.Intn(300)
		if r.Bernoulli(0.6) {
			for _, s := range samplers {
				s.Insert(k)
			}
			i := sort.SearchInts(model, k)
			model = append(model, 0)
			copy(model[i+1:], model[i:])
			model[i] = k
		} else {
			i := sort.SearchInts(model, k)
			want := i < len(model) && model[i] == k
			if want {
				model = append(model[:i], model[i+1:]...)
			}
			for name, s := range samplers {
				if got := s.Delete(k); got != want {
					t.Fatalf("op %d: %s.Delete(%d) = %v, want %v", op, name, k, got, want)
				}
			}
		}
		if op%101 == 0 {
			lo, hi := r.Intn(300), r.Intn(300)
			if lo > hi {
				lo, hi = hi, lo
			}
			want := sort.SearchInts(model, hi+1) - sort.SearchInts(model, lo)
			for name, s := range samplers {
				if s.Len() != len(model) {
					t.Fatalf("op %d: %s.Len = %d, want %d", op, name, s.Len(), len(model))
				}
				if got := s.Count(lo, hi); got != want {
					t.Fatalf("op %d: %s.Count(%d,%d) = %d, want %d", op, name, lo, hi, got, want)
				}
				out, err := s.SampleAppend(nil, lo, hi, 20, r)
				if want == 0 {
					if err != ErrEmptyRange {
						t.Fatalf("op %d: %s empty-range err = %v", op, name, err)
					}
					continue
				}
				if err != nil {
					t.Fatalf("op %d: %s err = %v", op, name, err)
				}
				for _, v := range out {
					if v < lo || v > hi {
						t.Fatalf("op %d: %s sample %d outside [%d,%d]", op, name, v, lo, hi)
					}
					if j := sort.SearchInts(model, v); j >= len(model) || model[j] != v {
						t.Fatalf("op %d: %s sample %d not in dataset", op, name, v)
					}
				}
			}
		}
	}
}

// TestSamplersUniformityEquivalence: on the same data and range, the
// three implementations draw the same exact law, each in-range occurrence
// with probability 1/count. The treap and report samplers map one
// Uint64n(count) to a key by rank, so driving that draw through every
// value returns each occurrence once; Dynamic is a chunks.Run, whose probe
// identifiers are in one-to-one correspondence with the occurrences
// (internal/chunks' TestKernelPartition), so here it is checked to draw
// only in-range keys.
func TestSamplersUniformityEquivalence(t *testing.T) {
	keys := make([]int, 0, 4000)
	r := xrand.New(8)
	for i := 0; i < 4000; i++ {
		keys = append(keys, r.Intn(100))
	}
	sort.Ints(keys)
	dyn, err := NewDynamicFromSorted(keys)
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTreapSampler[int](1)
	for _, k := range keys {
		tr.Insert(k)
	}
	rep, err := NewReportSamplerFromSorted(keys)
	if err != nil {
		t.Fatal(err)
	}
	var want []int
	for _, k := range keys {
		if k >= 20 && k <= 80 {
			want = append(want, k)
		}
	}
	for name, s := range map[string]Sampler[int]{"treap": tr, "report": rep} {
		got, ok := xrandtest.ByIndex(uint64(len(want)), func(r *xrand.RNG) int {
			out, err := s.SampleAppend(nil, 20, 80, 1, r)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return out[0]
		})
		if !ok || !slices.Equal(got, want) {
			t.Fatalf("%s: the bounded draw's values give %v (one output each: %v), want each in-range key once", name, got, ok)
		}
	}
	out, err := dyn.SampleAppend(nil, 20, 80, 1000, r)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range out {
		if k < 20 || k > 80 {
			t.Fatalf("dynamic: sample %d outside [20, 80]", k)
		}
	}
}

// TestIndependenceAcrossQueries: repeating the identical query must give
// fresh randomness — the probability two 50-sample draws from a large range
// coincide is astronomically small.
func TestIndependenceAcrossQueries(t *testing.T) {
	keys := make([]int, 100000)
	for i := range keys {
		keys[i] = i
	}
	d, err := NewDynamicFromSorted(keys)
	if err != nil {
		t.Fatal(err)
	}
	r := xrand.New(9)
	a, err := d.Sample(0, 99999, 50, r)
	if err != nil {
		t.Fatal(err)
	}
	b, err := d.Sample(0, 99999, 50, r)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("two independent queries returned identical sample vectors")
	}
}

func TestReportSamplerBuffer(t *testing.T) {
	rep := NewReportSamplerFromSortedMust(t, []int{1, 2, 3, 4, 5})
	r := xrand.New(10)
	out, err := rep.SampleAppend(nil, 2, 4, 10, r)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range out {
		if v < 2 || v > 4 {
			t.Fatalf("sample %d", v)
		}
	}
	if _, err := rep.SampleAppend(nil, 10, 20, 1, r); err != ErrEmptyRange {
		t.Fatalf("err = %v", err)
	}
	if _, err := rep.SampleAppend(nil, 2, 4, -1, r); err != ErrInvalidCount {
		t.Fatalf("err = %v", err)
	}
}

func NewReportSamplerFromSortedMust(t *testing.T, keys []int) *ReportSampler[int] {
	t.Helper()
	rep, err := NewReportSamplerFromSorted(keys)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestTreapSamplerArgs(t *testing.T) {
	tr := NewTreapSampler[int](3)
	r := xrand.New(11)
	if _, err := tr.SampleAppend(nil, 0, 1, -2, r); err != ErrInvalidCount {
		t.Fatalf("err = %v", err)
	}
	if out, err := tr.SampleAppend(nil, 0, 1, 0, r); err != nil || len(out) != 0 {
		t.Fatalf("t=0: %v %v", out, err)
	}
	if _, err := tr.SampleAppend(nil, 0, 1, 1, r); err != ErrEmptyRange {
		t.Fatalf("err = %v", err)
	}
}

func TestDynamicFootprintAndStats(t *testing.T) {
	keys := make([]int, 50000)
	for i := range keys {
		keys[i] = i
	}
	d, err := NewDynamicFromSorted(keys)
	if err != nil {
		t.Fatal(err)
	}
	st := d.GeometryStats()
	if st.N != 50000 || st.Groups == 0 || st.Chunks == 0 {
		t.Fatalf("stats = %+v", st)
	}
	if fp := d.Footprint(); fp < 50000*8 || fp > 50000*40 {
		t.Fatalf("footprint %d bytes unreasonable for 50k ints", fp)
	}
}
