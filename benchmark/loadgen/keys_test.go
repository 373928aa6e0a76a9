package loadgen

import (
	"slices"
	"sort"
	"testing"
)

func TestKeysAreAPureFunctionOfTheSeed(t *testing.T) {
	a, b := Keys(5, 20000), Keys(5, 20000)
	if !slices.Equal(a, b) {
		t.Fatal("the same seed gave different keys")
	}
	if slices.Equal(a, Keys(6, 20000)) {
		t.Fatal("different seeds gave the same keys")
	}
	if !sort.Float64sAreSorted(a) || a[0] < 0 || a[len(a)-1] >= KeySpan {
		t.Fatalf("keys not sorted inside [0, %v): first %v last %v", KeySpan, a[0], a[len(a)-1])
	}
	// Half the keys sit in Gaussian clumps, so equal-width slices of the
	// domain hold very different counts.
	counts := make([]int, 20)
	for _, k := range a {
		counts[int(k/KeySpan*20)]++
	}
	if lo, hi := slices.Min(counts), slices.Max(counts); hi < 2*lo {
		t.Fatalf("keys look uniform: slice counts range %d..%d", lo, hi)
	}
}

func TestRangesArePureAndHonourSelectivity(t *testing.T) {
	keys := Keys(1, 50000)
	r := Ranges{Seed: 9, Keys: keys, SelLo: 0.001, SelHi: 0.01, T: 16}
	same := Ranges{Seed: 9, Keys: keys, SelLo: 0.001, SelHi: 0.01, T: 16}
	other := Ranges{Seed: 10, Keys: keys, SelLo: 0.001, SelHi: 0.01, T: 16}
	differ := 0
	for _, i := range []uint64{0, 1, 2, 999, 1 << 40} {
		q := r.At(i)
		// Any order, any caller: request i is request i.
		if q != same.At(i) || q != r.At(i) {
			t.Fatalf("request %d is not a pure function of (seed, i)", i)
		}
		if q != other.At(i) {
			differ++
		}
	}
	if differ == 0 {
		t.Fatal("a different seed gave the same requests")
	}
	for i := uint64(0); i < 2000; i++ {
		q := r.At(i)
		lo, hi := sort.SearchFloat64s(keys, q.Lo), sort.SearchFloat64s(keys, q.Hi)
		if keys[lo] != q.Lo || keys[hi] != q.Hi || q.T != 16 {
			t.Fatalf("request %d = %+v does not start and end on stored keys", i, q)
		}
		width := hi - lo + 1
		if width < 50 || width > 500 {
			t.Fatalf("request %d covers %d of %d keys, outside selectivity 0.1%%..1%%", i, width, len(keys))
		}
	}
}

func TestRangesSplitHalfInsideHalfSpanning(t *testing.T) {
	keys := Keys(2, 10000)
	split := len(keys) / 2
	r := Ranges{Seed: 1, Keys: keys, SelLo: 0.001, SelHi: 0.5, Split: split, T: 64}
	left, right := 0, 0
	for i := uint64(0); i < 4000; i++ {
		q := r.At(i)
		lo, hi := sort.SearchFloat64s(keys, q.Lo), sort.SearchFloat64s(keys, q.Hi)
		spans := lo < split && hi >= split
		if spans != (i%2 == 1) {
			t.Fatalf("request %d covers ranks [%d, %d] around split %d: odd requests span, even ones do not", i, lo, hi, split)
		}
		if !spans && hi < split {
			left++
		} else if !spans {
			right++
		}
	}
	if left < 800 || right < 800 {
		t.Fatalf("inside requests fell %d left, %d right of the split: both partitions should be hit", left, right)
	}
}
