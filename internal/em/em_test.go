package em

import (
	"slices"
	"sort"
	"testing"

	"github.com/irsgo/irs/internal/xrand"
	"github.com/irsgo/irs/internal/xrand/xrandtest"
)

func newPool(t testing.TB, pageSize, frames int) *Pool {
	t.Helper()
	dev, err := NewDevice(pageSize)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := NewPool(dev, frames)
	if err != nil {
		t.Fatal(err)
	}
	return pool
}

func TestDeviceBasics(t *testing.T) {
	dev, err := NewDevice(128)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewDevice(16); err != ErrPageSize {
		t.Fatalf("err = %v", err)
	}
	id := dev.Alloc()
	buf := make([]byte, 128)
	buf[0] = 42
	if err := dev.Write(id, buf); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 128)
	if err := dev.Read(id, got); err != nil {
		t.Fatal(err)
	}
	if got[0] != 42 {
		t.Fatal("read back wrong data")
	}
	if err := dev.Read(99, got); err == nil {
		t.Fatal("no error for bad page")
	}
	if err := dev.Read(id, make([]byte, 64)); err != ErrBufLen {
		t.Fatalf("err = %v", err)
	}
	st := dev.Stats()
	if st.Reads != 1 || st.Writes != 1 || st.Pages != 1 {
		t.Fatalf("stats %+v", st)
	}
	dev.ResetStats()
	if st := dev.Stats(); st.Reads != 0 || st.Writes != 0 {
		t.Fatalf("stats after reset %+v", st)
	}
}

func TestPoolLRUAndWriteback(t *testing.T) {
	dev, _ := NewDevice(64)
	pool, err := NewPool(dev, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewPool(dev, 2); err != ErrPoolTooTiny {
		t.Fatalf("err = %v", err)
	}
	ids := make([]PageID, 6)
	for i := range ids {
		id, page, err := pool.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		page[0] = byte(i + 1)
		ids[i] = id
	}
	// Pages 0 and 1 must have been evicted (written back, they were dirty).
	st := pool.Stats()
	if st.Evictions != 2 || st.Resident != 4 {
		t.Fatalf("stats %+v", st)
	}
	dev.ResetStats()
	page, err := pool.Get(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	if page[0] != 1 {
		t.Fatal("dirty eviction lost data")
	}
	if r := dev.Stats().Reads; r != 1 {
		t.Fatalf("device reads = %d, want 1 (miss)", r)
	}
	dev.ResetStats()
	if _, err := pool.Get(ids[0]); err != nil {
		t.Fatal(err)
	}
	if r := dev.Stats().Reads; r != 0 {
		t.Fatalf("device reads = %d, want 0 (hit)", r)
	}
	if err := pool.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := pool.Drop(); err != nil {
		t.Fatal(err)
	}
	if pool.Stats().Resident != 0 {
		t.Fatal("Drop left residents")
	}
}

func seqKeys(n int) []int64 {
	keys := make([]int64, n)
	for i := range keys {
		keys[i] = int64(i)
	}
	return keys
}

func TestBulkLoadAndIterate(t *testing.T) {
	pool := newPool(t, 256, 64)
	tree, err := BulkLoad(pool, seqKeys(10000), 0.8)
	if err != nil {
		t.Fatal(err)
	}
	if tree.Len() != 10000 {
		t.Fatalf("Len = %d", tree.Len())
	}
	if tree.Height() < 2 {
		t.Fatalf("height = %d", tree.Height())
	}
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
	i := int64(0)
	for it := tree.SeekGE(0); it.Valid(); it.Next() {
		if it.Key() != i {
			t.Fatalf("iteration key %d, want %d", it.Key(), i)
		}
		i++
	}
	if i != 10000 {
		t.Fatalf("iterated %d keys", i)
	}
	if _, err := BulkLoad(pool, []int64{3, 1}, 0.8); err == nil {
		t.Fatal("unsorted bulk load accepted")
	}
}

func TestEmptyTree(t *testing.T) {
	pool := newPool(t, 128, 8)
	tree, err := New(pool)
	if err != nil {
		t.Fatal(err)
	}
	if tree.Len() != 0 || tree.Height() != 1 {
		t.Fatalf("Len=%d Height=%d", tree.Len(), tree.Height())
	}
	it := tree.SeekGE(0)
	if it.Valid() {
		t.Fatal("iterator valid on empty tree")
	}
	if _, err := tree.SampleRange(0, 10, 1, xrand.New(1)); err != ErrEmptyRange {
		t.Fatalf("err = %v", err)
	}
	if _, err := tree.ScanSample(0, 10, 1, xrand.New(1)); err != ErrEmptyRange {
		t.Fatalf("err = %v", err)
	}
	c, err := tree.Count(0, 10)
	if err != nil || c != 0 {
		t.Fatalf("Count = %d, %v", c, err)
	}
}

func TestInsertAgainstModel(t *testing.T) {
	pool := newPool(t, 128, 64)
	tree, err := New(pool)
	if err != nil {
		t.Fatal(err)
	}
	r := xrand.New(2)
	var model []int
	for i := 0; i < 5000; i++ {
		k := r.Intn(2000)
		if err := tree.Insert(int64(k)); err != nil {
			t.Fatal(err)
		}
		pos := sort.SearchInts(model, k)
		model = append(model, 0)
		copy(model[pos+1:], model[pos:])
		model[pos] = k
		if i%500 == 0 {
			if err := tree.Validate(); err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
		}
	}
	if tree.Len() != len(model) {
		t.Fatalf("Len = %d, want %d", tree.Len(), len(model))
	}
	i := 0
	for it := tree.SeekGE(-1); it.Valid(); it.Next() {
		if it.Key() != int64(model[i]) {
			t.Fatalf("key %d = %d, want %d", i, it.Key(), model[i])
		}
		i++
	}
	if i != len(model) {
		t.Fatalf("iterated %d of %d", i, len(model))
	}
}

func TestDeleteLogical(t *testing.T) {
	pool := newPool(t, 128, 64)
	tree, err := BulkLoad(pool, seqKeys(2000), 0.8)
	if err != nil {
		t.Fatal(err)
	}
	ok, err := tree.Delete(500)
	if err != nil || !ok {
		t.Fatalf("Delete(500) = %v, %v", ok, err)
	}
	ok, err = tree.Delete(500)
	if err != nil || ok {
		t.Fatalf("second Delete(500) = %v, %v", ok, err)
	}
	if tree.Len() != 1999 {
		t.Fatalf("Len = %d", tree.Len())
	}
	c, err := tree.Count(499, 501)
	if err != nil || c != 2 {
		t.Fatalf("Count = %d, %v", c, err)
	}
	// Delete a whole stretch, leaving sparse leaves; queries stay correct.
	for k := int64(1000); k < 1500; k++ {
		ok, err := tree.Delete(k)
		if err != nil || !ok {
			t.Fatalf("Delete(%d) = %v, %v", k, ok, err)
		}
	}
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
	c, err = tree.Count(900, 1600)
	if err != nil || c != 201 { // 900..999 and 1500..1600
		t.Fatalf("Count = %d, %v", c, err)
	}
}

func TestCountRanges(t *testing.T) {
	pool := newPool(t, 256, 64)
	tree, err := BulkLoad(pool, []int64{10, 20, 20, 20, 30, 40, 50}, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		lo, hi int64
		want   int
	}{
		{0, 5, 0}, {60, 99, 0}, {25, 28, 0}, {20, 20, 3}, {10, 50, 7},
		{15, 45, 5}, {50, 10, 0},
	}
	for _, tc := range cases {
		got, err := tree.Count(tc.lo, tc.hi)
		if err != nil {
			t.Fatal(err)
		}
		if got != tc.want {
			t.Fatalf("Count(%d,%d) = %d, want %d", tc.lo, tc.hi, got, tc.want)
		}
	}
}

// TestSampleRangeUniform: a probe draws a leaf of the range's leaf run
// and a slot below the leaf capacity, two bounded draws, and accepts the
// slot's key if the slot is filled and the key in range. Driving both
// draws through every pair of values, the pairs accepted on the first
// probe hit every in-range key exactly once — so each sample is exactly
// uniform — and every other pair is rejected.
func TestSampleRangeUniform(t *testing.T) {
	pool := newPool(t, 256, 256)
	n := 20000
	tree, err := BulkLoad(pool, seqKeys(n), 0.8)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := int64(2000), int64(18000)
	li := tree.leafPos[tree.SeekGE(lo).LeafID()]
	lj, err := tree.lastLeafLE(hi)
	if err != nil {
		t.Fatal(err)
	}
	span, slots := uint64(lj-li+1), uint64(tree.leafCap)
	var got []int64
	for pos := range span {
		for slot := range slots {
			x, y := xrandtest.Index(pos, span), xrandtest.Index(slot, slots)
			r, probe := xrandtest.Yielding(x, y), xrandtest.Yielding(x, y)
			out, err := tree.SampleRange(lo, hi, 1, r)
			if err != nil {
				t.Fatal(err)
			}
			probe.Uint64()
			probe.Uint64()
			if *r == *probe { // accepted on the first probe
				got = append(got, out[0])
			}
		}
	}
	slices.Sort(got)
	var want []int64
	for k := lo; k <= hi; k++ {
		want = append(want, k)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("first probes accept %d keys, want each of the %d in [%d, %d] once", len(got), len(want), lo, hi)
	}
}

func TestSampleRangeTinyAndEdge(t *testing.T) {
	pool := newPool(t, 128, 64)
	tree, err := BulkLoad(pool, seqKeys(1000), 0.8)
	if err != nil {
		t.Fatal(err)
	}
	r := xrand.New(4)
	// Range inside a single leaf.
	out, err := tree.SampleRange(500, 503, 100, r)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range out {
		if k < 500 || k > 503 {
			t.Fatalf("sample %d", k)
		}
	}
	// Empty interior range.
	if _, err := tree.SampleRange(2000, 3000, 1, r); err != ErrEmptyRange {
		t.Fatalf("err = %v", err)
	}
	// Inverted.
	if _, err := tree.SampleRange(10, 5, 1, r); err != ErrEmptyRange {
		t.Fatalf("err = %v", err)
	}
	// Negative count.
	if _, err := tree.SampleRange(0, 10, -1, r); err != ErrInvalidCount {
		t.Fatalf("err = %v", err)
	}
	// Zero count.
	out, err = tree.SampleRange(0, 10, 0, r)
	if err != nil || out != nil {
		t.Fatalf("k=0: %v %v", out, err)
	}
}

func TestScanSampleMembership(t *testing.T) {
	pool := newPool(t, 256, 64)
	tree, err := BulkLoad(pool, seqKeys(5000), 0.8)
	if err != nil {
		t.Fatal(err)
	}
	r := xrand.New(5)
	out, err := tree.ScanSample(1000, 4000, 50, r)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 50 {
		t.Fatalf("got %d", len(out))
	}
	for _, k := range out {
		if k < 1000 || k > 4000 {
			t.Fatalf("sample %d", k)
		}
	}
	// Range smaller than k returns everything seen.
	out, err = tree.ScanSample(10, 14, 50, r)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 5 {
		t.Fatalf("got %d, want 5", len(out))
	}
}

// TestIOComplexityShape is the heart of the EM story: sampling I/O is flat
// in the range size, scanning I/O is linear in it.
func TestIOComplexityShape(t *testing.T) {
	pool := newPool(t, 256, 8) // tiny pool: almost every probe is cold
	n := 100000
	tree, err := BulkLoad(pool, seqKeys(n), 0.8)
	if err != nil {
		t.Fatal(err)
	}
	dev := pool.Device()
	r := xrand.New(6)
	const k = 16

	measure := func(f func() error) int64 {
		if err := pool.Drop(); err != nil {
			t.Fatal(err)
		}
		dev.ResetStats()
		if err := f(); err != nil {
			t.Fatal(err)
		}
		return dev.Stats().Reads
	}

	narrowSample := measure(func() error {
		_, err := tree.SampleRange(1000, 2000, k, r)
		return err
	})
	wideSample := measure(func() error {
		_, err := tree.SampleRange(1000, 91000, k, r)
		return err
	})
	narrowScan := measure(func() error {
		_, err := tree.ScanSample(1000, 2000, k, r)
		return err
	})
	wideScan := measure(func() error {
		_, err := tree.ScanSample(1000, 91000, k, r)
		return err
	})

	// Sampling: I/O roughly flat as the range grows 90x.
	if wideSample > 8*narrowSample {
		t.Fatalf("sample I/O grew with range: %d -> %d", narrowSample, wideSample)
	}
	// Scanning: I/O must grow dramatically (range grew 90x).
	if wideScan < 20*narrowScan {
		t.Fatalf("scan I/O did not scale with range: %d -> %d", narrowScan, wideScan)
	}
	// On wide ranges sampling must beat scanning by a wide margin.
	if wideSample*10 > wideScan {
		t.Fatalf("sampling (%d reads) not clearly cheaper than scanning (%d reads)", wideSample, wideScan)
	}
}

func TestInsertIntoBulkLoadedTree(t *testing.T) {
	pool := newPool(t, 128, 64)
	tree, err := BulkLoad(pool, seqKeys(3000), 0.9)
	if err != nil {
		t.Fatal(err)
	}
	// Dense inserts into one region force cascading splits.
	for i := 0; i < 2000; i++ {
		if err := tree.Insert(1500); err != nil {
			t.Fatal(err)
		}
	}
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
	c, err := tree.Count(1500, 1500)
	if err != nil || c != 2001 {
		t.Fatalf("Count(1500,1500) = %d, %v", c, err)
	}
	// Sampling still works and respects weights-by-multiplicity.
	r := xrand.New(7)
	out, err := tree.SampleRange(1400, 1600, 30000, r)
	if err != nil {
		t.Fatal(err)
	}
	hits := 0
	for _, k := range out {
		if k == 1500 {
			hits++
		}
	}
	frac := float64(hits) / float64(len(out))
	want := 2001.0 / 2201.0
	if frac < want-0.03 || frac > want+0.03 {
		t.Fatalf("duplicate frequency %.3f, want ~%.3f", frac, want)
	}
}

func BenchmarkSampleRange(b *testing.B) {
	pool := newPool(b, 4096, 1024)
	tree, err := BulkLoad(pool, seqKeys(1<<20), 0.8)
	if err != nil {
		b.Fatal(err)
	}
	r := xrand.New(8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tree.SampleRange(1000, 900000, 16, r); err != nil {
			b.Fatal(err)
		}
	}
}
