package chunks

import (
	"math"
	"slices"
	"testing"

	"github.com/irsgo/irs/internal/xrand"
	"github.com/irsgo/irs/internal/xrand/xrandtest"
)

// A run's probe draws one identifier v uniformly below span() and accepts
// the key in the slot v names iff the slot is filled and the key is in
// range; rejected probes are redrawn from the same span. So one sample is
// exactly uniform over the range's key occurrences iff the accepting
// identifiers are in one-to-one correspondence with those occurrences.
// checkPartition enumerates every identifier below the span, runs the
// production kernel's draw and accept on it, and checks exactly that: no
// identifier accepts an empty slot or an out-of-range key, and every
// in-range occurrence has exactly one accepting identifier. The samples
// are then uniform by counting, not by a test at some significance level.

// partitionKeys is the alphabet the partition checks build key multisets
// from: both infinities, both zeros (equal as keys), and a few finite
// values with gaps between them.
var partitionKeys = []float64{math.Inf(-1), -7, -1, math.Copysign(0, -1), 0, 0.5, 2, 3, 1e300, math.Inf(1)}

// probe runs the kernel's draw and accept on a single probe whose
// identifier is v, and returns the accepted key and its identifier.
func (r *Run[K]) probe(v uint64) (key K, id uint64, ok bool) {
	var f flight[K]
	r.draw(xrandtest.Yielding(xrandtest.Index(v, r.span())), 1, &f)
	var b block[K]
	if r.accept(&f, &b) == 0 {
		return key, 0, false
	}
	return b.keys[0], b.ids[0], true
}

// checkPartition checks the partition property of l's run over [lo, hi]
// against model, the sorted multiset l holds, and returns the run's mode.
func checkPartition(t testing.TB, l *List[float64], model []float64, lo, hi float64) runMode {
	t.Helper()
	var want []float64
	for _, k := range model {
		if k >= lo && k <= hi {
			want = append(want, k)
		}
	}
	r := l.NewRun(lo, hi)
	if r.Empty() {
		if len(want) > 0 {
			t.Fatalf("s=%d [%v, %v]: run is empty, range holds %d keys", l.s, lo, hi, len(want))
		}
		return modeEmpty
	}
	if got := r.Count(); got != len(want) {
		t.Fatalf("s=%d [%v, %v]: Count = %d, want %d", l.s, lo, hi, got, len(want))
	}
	hit := map[*float64]bool{}
	var got []float64
	for v := range r.span() {
		slot := r.decode(v)
		accepts := slot != nil && *slot >= lo && *slot <= hi
		k, id, ok := r.probe(v)
		if ok != accepts || ok && (k != *slot || id != v) {
			t.Fatalf("s=%d mode=%d [%v, %v]: id %d: kernel (%v, %d, %v), slot %v accepting %v", l.s, r.mode, lo, hi, v, k, id, ok, slot, accepts)
		}
		if !ok {
			continue
		}
		if hit[slot] {
			t.Fatalf("s=%d mode=%d [%v, %v]: two identifiers accept one occurrence", l.s, r.mode, lo, hi)
		}
		hit[slot] = true
		got = append(got, k)
	}
	slices.Sort(got)
	if !slices.Equal(got, want) {
		t.Fatalf("s=%d mode=%d [%v, %v]: accepting identifiers cover %v, want %v", l.s, r.mode, lo, hi, got, want)
	}
	return r.mode
}

// checkAllRanges runs checkPartition over every (lo, hi) drawn from the
// alphabet, including inverted ranges, and returns the modes it saw.
func checkAllRanges(t testing.TB, l *List[float64], model []float64) map[runMode]bool {
	seen := map[runMode]bool{}
	for _, lo := range partitionKeys {
		for _, hi := range partitionKeys {
			seen[checkPartition(t, l, model, lo, hi)] = true
		}
	}
	return seen
}

// partitionMultiset returns n keys from the alphabet, sorted. Early
// alphabet keys are common, so their runs of duplicates span chunks and
// groups; late ones are rare, so ranges over them fit in one chunk.
func partitionMultiset(n int, rng *xrand.RNG) []float64 {
	keys := make([]float64, n)
	for i := range keys {
		keys[i] = partitionKeys[rng.Intn(1+rng.Intn(len(partitionKeys)))]
	}
	slices.Sort(keys)
	return keys
}

// TestKernelPartition checks the partition property for lists at every s
// from 4 (the smallest NewFromSortedWithS accepts) to 10, built from
// sorted keys and then churned by inserts and deletes, with and without
// the collect fallback, over every range the alphabet spans. Each list is
// large enough to have four groups, so groups, chunks and collect mode all
// occur.
func TestKernelPartition(t *testing.T) {
	rng := xrand.New(1)
	for s := 4; s <= 10; s++ {
		fill := s + s/2
		model := partitionMultiset((3*fill+1)*fill, rng)
		l, err := NewFromSortedWithS(model, s)
		if err != nil {
			t.Fatal(err)
		}
		for phase, churn := range []int{0, len(model) / 2, len(model)} {
			for range churn {
				k := partitionKeys[rng.Intn(len(partitionKeys))]
				if rng.Intn(3) == 0 {
					if l.Delete(k) {
						i, _ := slices.BinarySearch(model, k)
						model = slices.Delete(model, i, i+1)
					}
					continue
				}
				l.Insert(k)
				i, _ := slices.BinarySearch(model, k)
				model = slices.Insert(model, i, k)
			}
			if err := l.Validate(); err != nil {
				t.Fatal(err)
			}
			seen := checkAllRanges(t, l, model)
			l.SetCollectFallback(false)
			for m := range checkAllRanges(t, l, model) {
				seen[m] = true
			}
			l.SetCollectFallback(true)
			if phase == 0 && !(seen[modeGroups] && seen[modeChunks] && seen[modeCollect]) {
				t.Fatalf("s=%d: modes seen %v, want groups, chunks and collect", s, seen)
			}
		}
	}
}

// FuzzKernelPartition checks the partition property on a fuzzed key
// multiset (each byte one alphabet key, repeated 1–4 times), s in [4, 10],
// an insert/delete script and one (lo, hi).
func FuzzKernelPartition(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 0}, uint8(0), []byte{0x13, 0x82}, uint8(2), uint8(7))
	f.Add(make([]byte, 200), uint8(6), []byte{}, uint8(0), uint8(9))
	f.Add([]byte("a long run of keys with duplicates spanning several groups of chunks at s four"), uint8(0), []byte("deletes and inserts"), uint8(1), uint8(8))
	f.Fuzz(func(t *testing.T, keyBytes []byte, sByte uint8, script []byte, loByte, hiByte uint8) {
		var model []float64
		for _, b := range keyBytes {
			for range 1 + int(b>>4)%4 {
				model = append(model, partitionKeys[int(b)%len(partitionKeys)])
			}
		}
		slices.Sort(model)
		l, err := NewFromSortedWithS(model, 4+int(sByte)%7)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range script {
			k := partitionKeys[int(b)%len(partitionKeys)]
			if b&0x80 != 0 {
				if l.Delete(k) {
					i, _ := slices.BinarySearch(model, k)
					model = slices.Delete(model, i, i+1)
				}
				continue
			}
			l.Insert(k)
			i, _ := slices.BinarySearch(model, k)
			model = slices.Insert(model, i, k)
		}
		l.SetCollectFallback(loByte&0x80 == 0)
		lo := partitionKeys[int(loByte&0x7f)%len(partitionKeys)]
		hi := partitionKeys[int(hiByte)%len(partitionKeys)]
		checkPartition(t, l, model, lo, hi)
	})
}
