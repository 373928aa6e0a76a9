package chunks

import (
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"github.com/irsgo/irs/internal/xrand"
)

func TestEmptyList(t *testing.T) {
	l := New[int]()
	if l.Len() != 0 {
		t.Fatalf("Len = %d", l.Len())
	}
	if l.Count(0, 100) != 0 {
		t.Fatal("Count on empty != 0")
	}
	if l.Contains(5) {
		t.Fatal("Contains on empty")
	}
	if l.Delete(5) {
		t.Fatal("Delete on empty")
	}
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	r := l.NewRun(0, 100)
	if !r.Empty() {
		t.Fatal("run on empty list not empty")
	}
	if _, ok := l.SampleAppend(nil, 0, 100, 5, xrand.New(1)); ok {
		t.Fatal("SampleAppend on empty list returned ok")
	}
}

func TestNewFromSortedRejectsUnsorted(t *testing.T) {
	if _, err := NewFromSorted([]int{3, 1, 2}); err != ErrUnsorted {
		t.Fatalf("err = %v, want ErrUnsorted", err)
	}
}

func TestNewFromSortedSmall(t *testing.T) {
	for n := 0; n <= 40; n++ {
		keys := make([]int, n)
		for i := range keys {
			keys[i] = i * 2
		}
		l, err := NewFromSorted(keys)
		if err != nil {
			t.Fatal(err)
		}
		if l.Len() != n {
			t.Fatalf("n=%d: Len = %d", n, l.Len())
		}
		if err := l.Validate(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		got := l.AppendKeys(nil)
		for i := range keys {
			if got[i] != keys[i] {
				t.Fatalf("n=%d: key %d = %d, want %d", n, i, got[i], keys[i])
			}
		}
	}
}

func TestBuildGeometry(t *testing.T) {
	keys := make([]int, 100000)
	for i := range keys {
		keys[i] = i
	}
	l, err := NewFromSorted(keys)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	st := l.GeometryStats()
	if st.N != 100000 {
		t.Fatalf("N = %d", st.N)
	}
	if st.S < minS {
		t.Fatalf("S = %d < minS", st.S)
	}
	// Average chunk fill should be around 1.5s.
	avg := float64(st.N) / float64(st.Chunks)
	if avg < float64(st.S)/2 || avg > 2*float64(st.S) {
		t.Fatalf("average chunk fill %.1f outside [s/2, 2s] with s=%d", avg, st.S)
	}
}

func TestInsertDeleteSmokeWithValidation(t *testing.T) {
	l := New[int]()
	for i := 0; i < 2000; i++ {
		l.Insert(i * 7 % 1000)
		if i%100 == 0 {
			if err := l.Validate(); err != nil {
				t.Fatalf("after insert %d: %v", i, err)
			}
		}
	}
	if l.Len() != 2000 {
		t.Fatalf("Len = %d", l.Len())
	}
	for i := 0; i < 2000; i++ {
		if !l.Delete(i * 7 % 1000) {
			t.Fatalf("Delete #%d failed", i)
		}
		if i%100 == 0 {
			if err := l.Validate(); err != nil {
				t.Fatalf("after delete %d: %v", i, err)
			}
		}
	}
	if l.Len() != 0 {
		t.Fatalf("Len after all deletes = %d", l.Len())
	}
}

// TestAgainstSortedModel runs a long random op sequence against a sorted
// slice, checking Len, Count, Contains, and full key order.
func TestAgainstSortedModel(t *testing.T) {
	r := xrand.New(2)
	l := New[int]()
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
	for op := 0; op < 12000; op++ {
		k := r.Intn(500)
		if r.Bernoulli(0.55) {
			l.Insert(k)
			insertModel(k)
		} else {
			got := l.Delete(k)
			want := deleteModel(k)
			if got != want {
				t.Fatalf("op %d: Delete(%d) = %v, want %v", op, k, got, want)
			}
		}
		if l.Len() != len(model) {
			t.Fatalf("op %d: Len = %d, want %d", op, l.Len(), len(model))
		}
		if op%251 == 0 {
			if err := l.Validate(); err != nil {
				t.Fatalf("op %d: %v", op, err)
			}
			lo, hi := r.Intn(500), r.Intn(500)
			if lo > hi {
				lo, hi = hi, lo
			}
			want := sort.SearchInts(model, hi+1) - sort.SearchInts(model, lo)
			if got := l.Count(lo, hi); got != want {
				t.Fatalf("op %d: Count(%d,%d) = %d, want %d", op, lo, hi, got, want)
			}
			kk := r.Intn(500)
			wantC := false
			if i := sort.SearchInts(model, kk); i < len(model) && model[i] == kk {
				wantC = true
			}
			if got := l.Contains(kk); got != wantC {
				t.Fatalf("op %d: Contains(%d) = %v, want %v", op, kk, got, wantC)
			}
		}
	}
	keys := l.AppendKeys(nil)
	if len(keys) != len(model) {
		t.Fatalf("final key count %d, want %d", len(keys), len(model))
	}
	for i := range keys {
		if keys[i] != model[i] {
			t.Fatalf("final keys[%d] = %d, want %d", i, keys[i], model[i])
		}
	}
}

func TestCountEdgeCases(t *testing.T) {
	keys := []int{10, 20, 20, 20, 30, 40, 50}
	l, err := NewFromSorted(keys)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		lo, hi, want int
	}{
		{0, 5, 0},   // entirely below
		{60, 99, 0}, // entirely above
		{25, 28, 0}, // gap
		{20, 20, 3}, // duplicates
		{10, 50, 7}, // full span
		{-100, 100, 7},
		{15, 45, 5},
		{50, 10, 0}, // inverted
		{10, 10, 1},
		{50, 50, 1},
	}
	for _, tc := range cases {
		if got := l.Count(tc.lo, tc.hi); got != tc.want {
			t.Fatalf("Count(%d,%d) = %d, want %d", tc.lo, tc.hi, got, tc.want)
		}
	}
}

func TestRunModes(t *testing.T) {
	// Large sorted list: tiny ranges collect, medium ranges use the chunk
	// run, huge ranges use the group run.
	n := 200000
	keys := make([]int, n)
	for i := range keys {
		keys[i] = i
	}
	l, err := NewFromSorted(keys)
	if err != nil {
		t.Fatal(err)
	}
	s := l.S()

	tiny := l.NewRun(100, 100+s/2)
	if tiny.mode != modeCollect {
		t.Fatalf("tiny range mode = %d, want collect", tiny.mode)
	}
	medium := l.NewRun(100, 100+6*s)
	if medium.mode != modeChunks {
		t.Fatalf("medium range mode = %d, want chunks", medium.mode)
	}
	huge := l.NewRun(0, n-1)
	if huge.mode != modeGroups {
		t.Fatalf("huge range mode = %d, want groups", huge.mode)
	}
	empty := l.NewRun(n+10, n+20)
	if !empty.Empty() {
		t.Fatal("out-of-domain range not empty")
	}
	inverted := l.NewRun(50, 10)
	if !inverted.Empty() {
		t.Fatal("inverted range not empty")
	}
}

func TestSampleMembershipNonUniformData(t *testing.T) {
	// Clustered keys with duplicates and gaps: every sample must be an
	// element of the dataset and inside the query range.
	r := xrand.New(4)
	var keys []int
	for i := 0; i < 30000; i++ {
		keys = append(keys, r.Intn(1000)*1000+r.Intn(3))
	}
	sort.Ints(keys)
	l, err := NewFromSorted(keys)
	if err != nil {
		t.Fatal(err)
	}
	present := map[int]bool{}
	for _, k := range keys {
		present[k] = true
	}
	for trial := 0; trial < 50; trial++ {
		lo := r.Intn(1000000)
		hi := lo + r.Intn(200000)
		samples, ok := l.SampleAppend(nil, lo, hi, 100, r)
		if !ok {
			if l.Count(lo, hi) != 0 {
				t.Fatalf("sampling failed on non-empty range [%d,%d]", lo, hi)
			}
			continue
		}
		for _, s := range samples {
			if s < lo || s > hi || !present[s] {
				t.Fatalf("bad sample %d from [%d,%d]", s, lo, hi)
			}
		}
	}
}

// TestSampleDuplicateWeighting: key 5 stored three times and key 6 once
// are drawn 3:1 exactly — every occurrence has one accepting probe
// identifier (checkPartition).
func TestSampleDuplicateWeighting(t *testing.T) {
	var keys []float64
	for range 500 {
		keys = append(keys, 5, 5, 5, 6)
	}
	slices.Sort(keys)
	l, err := NewFromSorted(keys)
	if err != nil {
		t.Fatal(err)
	}
	checkPartition(t, l, keys, 5, 6)
}

func TestProbesBounded(t *testing.T) {
	n := 300000
	keys := make([]int, n)
	for i := range keys {
		keys[i] = i
	}
	l, err := NewFromSorted(keys)
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(6)
	for _, span := range []int{n - 1, n / 10, 50 * l.S(), 4 * l.S()} {
		run := l.NewRun(0, span)
		if run.Empty() {
			t.Fatalf("span %d empty", span)
		}
		totalProbes := 0
		const draws = 20000
		for i := 0; i < draws; i++ {
			_, p := run.SampleProbes(rng)
			totalProbes += p
		}
		avg := float64(totalProbes) / draws
		if avg > 16 {
			t.Fatalf("span %d: average probes %.2f, want O(1)", span, avg)
		}
	}
}

func TestSamplingAfterHeavyUpdates(t *testing.T) {
	// Interleave updates and sampling; distribution checks still pass.
	r := xrand.New(7)
	l := New[int]()
	for i := 0; i < 50000; i++ {
		l.Insert(r.Intn(100000))
	}
	for i := 0; i < 20000; i++ {
		l.Delete(r.Intn(100000))
	}
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	samples, ok := l.SampleAppend(nil, 20000, 80000, 50000, r)
	if !ok {
		t.Fatal("sampling failed")
	}
	inRange := l.Count(20000, 80000)
	if inRange == 0 {
		t.Fatal("no keys in range")
	}
	for _, s := range samples {
		if s < 20000 || s > 80000 {
			t.Fatalf("sample %d out of range", s)
		}
	}
}

func TestRebuildRetunesS(t *testing.T) {
	l := New[int]()
	for i := 0; i < 300000; i++ {
		l.Insert(i)
	}
	if l.S() <= minS {
		t.Fatalf("S = %d after 3e5 inserts, expected growth", l.S())
	}
	grown := l.S()
	for i := 0; i < 299000; i++ {
		l.Delete(i)
	}
	if l.S() >= grown {
		t.Fatalf("S = %d after shrink, want < %d", l.S(), grown)
	}
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFootprintLinear(t *testing.T) {
	small, err := NewFromSorted(seq(10000))
	if err != nil {
		t.Fatal(err)
	}
	big, err := NewFromSorted(seq(100000))
	if err != nil {
		t.Fatal(err)
	}
	fs, fb := small.Footprint(), big.Footprint()
	if fb < 5*fs || fb > 20*fs {
		t.Fatalf("footprint scaling: 10k -> %d bytes, 100k -> %d bytes", fs, fb)
	}
	bytesPerKey := float64(fb) / 100000
	if bytesPerKey > 40 {
		t.Fatalf("%.1f bytes/key is far above linear expectations", bytesPerKey)
	}
}

// TestFootprintPerKeyPinned pins space at 2^20 keys grown by random
// inserts: the inline directory (24-byte chunk headers held in each group)
// must cost no more than the pointer directory it replaced, which
// estimated 13.0 bytes per key here.
func TestFootprintPerKeyPinned(t *testing.T) {
	const n = 1 << 20
	l := New[float64]()
	r := xrand.New(12)
	for range n {
		l.Insert(r.Float64())
	}
	if perKey := float64(l.Footprint()) / n; perKey > 13.0 {
		t.Fatalf("%.2f bytes per key at 2^20 keys, want <= 13.0", perKey)
	}
}

func seq(n int) []int {
	keys := make([]int, n)
	for i := range keys {
		keys[i] = i
	}
	return keys
}

// TestPropertyRandomOps: arbitrary op sequences keep the structure valid
// and consistent with a model.
func TestPropertyRandomOps(t *testing.T) {
	check := func(ops []uint16) bool {
		l := New[uint16]()
		var model []int
		for _, op := range ops {
			k := op % 997
			if op%3 != 0 {
				l.Insert(k)
				i := sort.SearchInts(model, int(k))
				model = append(model, 0)
				copy(model[i+1:], model[i:])
				model[i] = int(k)
			} else {
				got := l.Delete(k)
				i := sort.SearchInts(model, int(k))
				want := i < len(model) && model[i] == int(k)
				if want {
					model = append(model[:i], model[i+1:]...)
				}
				if got != want {
					return false
				}
			}
		}
		if l.Len() != len(model) {
			return false
		}
		if l.Validate() != nil {
			return false
		}
		keys := l.AppendKeys(nil)
		for i := range keys {
			if int(keys[i]) != model[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestFloatKeys(t *testing.T) {
	l := New[float64]()
	r := xrand.New(8)
	for i := 0; i < 10000; i++ {
		l.Insert(r.Float64())
	}
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	samples, ok := l.SampleAppend(nil, 0.25, 0.75, 1000, r)
	if !ok {
		t.Fatal("sampling failed")
	}
	for _, s := range samples {
		if s < 0.25 || s > 0.75 {
			t.Fatalf("sample %v out of range", s)
		}
	}
}

func TestInitRunReuseAllocFree(t *testing.T) {
	l, err := NewFromSorted(seq(100000))
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(9)
	var run Run[int]
	l.InitRun(&run, 1000, 90000)
	allocs := testing.AllocsPerRun(100, func() {
		l.InitRun(&run, 1000, 90000)
		for i := 0; i < 8; i++ {
			run.Sample(rng)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state query allocated %v times, want 0", allocs)
	}
}

func BenchmarkInsertRandom(b *testing.B) {
	l := New[float64]()
	r := xrand.New(10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Insert(r.Float64())
	}
}

func BenchmarkSample64From1M(b *testing.B) {
	keys := make([]float64, 1<<20)
	r := xrand.New(11)
	for i := range keys {
		keys[i] = r.Float64()
	}
	sort.Float64s(keys)
	l, err := NewFromSorted(keys)
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]float64, 0, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = buf[:0]
		buf, _ = l.SampleAppend(buf, 0.25, 0.75, 64, r)
	}
}
