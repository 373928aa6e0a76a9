package shard

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"testing"

	"github.com/irsgo/irs/internal/xrand"
)

// FuzzSortFloat64s checks the float64 batch sort against slices.Sort on
// keys built from raw bit patterns: data is cut into 8-byte patterns,
// repeated to n keys with step added to each repeat's bits (step 0 repeats
// them exactly), and NaN patterns lose their exponent, since batches hold
// no NaN. The output must equal slices.Sort's under cmp.Compare and hold
// the input's bit patterns. The seed corpus covers ±0, ±Inf, subnormals,
// all-equal batches and sizes around radixCutoff.
func FuzzSortFloat64s(f *testing.F) {
	patterns := func(fs ...float64) []byte {
		var b []byte
		for _, x := range fs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
		}
		return b
	}
	specials := patterns(math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.Float64frombits(0x000fffffffffffff), -math.Float64frombits(0x000fffffffffffff),
		math.MaxFloat64, -math.MaxFloat64, 1, -1, 0.5, 1e6)
	for _, n := range []uint16{0, 1, 2, 100, radixCutoff - 1, radixCutoff, radixCutoff + 1, 3 * radixCutoff} {
		f.Add(specials, n, uint64(0))
		f.Add(specials, n, uint64(1))
		f.Add(patterns(42), n, uint64(0)) // all equal
		f.Add(patterns(-3.5, 7), n, uint64(1)<<40)
		f.Add(patterns(3, 1, 2), n, uint64(1)<<52) // low digits all shared
	}
	f.Fuzz(func(t *testing.T, data []byte, n uint16, step uint64) {
		m := len(data) / 8
		if m == 0 {
			data, m = make([]byte, 8), 1
		}
		in := make([]float64, n)
		for i := range in {
			j := i % m
			u := binary.LittleEndian.Uint64(data[8*j:]) + uint64(i/m)*step
			if math.IsNaN(math.Float64frombits(u)) {
				u &^= 0x7ff << 52
			}
			in[i] = math.Float64frombits(u)
		}
		want := slices.Clone(in)
		slices.Sort(want)
		for name, sorter := range map[string]func([]float64){"sortFloat64s": sortFloat64s, "radix": radixSortFloat64s} {
			got := slices.Clone(in)
			sorter(got)
			for i := range got {
				if cmp.Compare(got[i], want[i]) != 0 {
					t.Fatalf("%s of %d keys: position %d holds %v, slices.Sort has %v", name, n, i, got[i], want[i])
				}
			}
			if !slices.Equal(bitsSorted(got), bitsSorted(in)) {
				t.Fatalf("%s of %d keys: output is not a permutation of the input", name, n)
			}
		}
	})
}

// bitsSorted returns keys' bit patterns in increasing order.
func bitsSorted(keys []float64) []uint64 {
	u := make([]uint64, len(keys))
	for i, k := range keys {
		u[i] = math.Float64bits(k)
	}
	slices.Sort(u)
	return u
}

// BenchmarkSortFloat64s times the radix sort against slices.Sort on keys
// shaped like the serving benchmark's (uniform on [0, 1e6)) at sizes
// around radixCutoff: the crossover is where radixCutoff belongs.
func BenchmarkSortFloat64s(b *testing.B) {
	rng := xrand.New(3)
	for _, n := range []int{256, 512, 768, 1024, 2048, 32768} {
		keys := make([]float64, n)
		for i := range keys {
			keys[i] = rng.Float64Range(0, 1e6)
		}
		buf := make([]float64, n)
		for _, sorter := range []struct {
			name string
			sort func([]float64)
		}{{"radix", radixSortFloat64s}, {"pdq", slices.Sort[[]float64]}} {
			b.Run(fmt.Sprintf("%s/n=%d", sorter.name, n), func(b *testing.B) {
				for range b.N {
					copy(buf, keys)
					sorter.sort(buf)
				}
			})
		}
	}
}
