package shard

import (
	"cmp"
	"math"
	"slices"
	"sync"
)

// radixCutoff is the batch size from which float64 batches are radix-sorted.
// Below it slices.Sort is as fast or faster: the radix sort pays a fixed
// cost for its eight 256-bucket histograms whatever the batch size. On
// uniform keys the two cross between 768 and 896 keys, and at 1024 the
// radix sort takes half the time (BenchmarkSortFloat64s).
const radixCutoff = 1024

// radixScratch is sortFloat64s' working memory, pooled so a warm sort
// allocates nothing.
type radixScratch struct {
	buf    []float64
	counts [8][256]int // per-digit bucket counts, then bucket offsets
}

var radixPool = sync.Pool{New: func() any { return new(radixScratch) }}

// sortKeys sorts a batch of keys in increasing order: float64 batches go
// through sortFloat64s, other key types through slices.Sort. The keys hold
// no NaN (the engine rejects NaN before it sorts).
func sortKeys[K cmp.Ordered](s []K) {
	if f, ok := any(s).([]float64); ok {
		sortFloat64s(f)
		return
	}
	slices.Sort(s)
}

// sortFloat64s sorts s, which holds no NaN, in increasing order. From
// radixCutoff keys on it is an 8-bit LSD radix sort over the bit pattern
// sortable maps each key to: one pass counts all eight digits, and each
// digit that not every key shares then costs one stable scatter. Smaller
// batches use slices.Sort. Equal keys may come out in either order of their
// bit patterns (−0 before +0), which no comparison can tell apart.
func sortFloat64s(s []float64) {
	if len(s) < radixCutoff {
		slices.Sort(s)
		return
	}
	radixSortFloat64s(s)
}

// radixSortFloat64s is sortFloat64s' radix sort, at any size.
func radixSortFloat64s(s []float64) {
	n := len(s)
	if n == 0 {
		return
	}
	sc := radixPool.Get().(*radixScratch)
	c := &sc.counts
	*c = [8][256]int{}
	for _, f := range s {
		u := sortable(f)
		c[0][byte(u)]++
		c[1][byte(u>>8)]++
		c[2][byte(u>>16)]++
		c[3][byte(u>>24)]++
		c[4][byte(u>>32)]++
		c[5][byte(u>>40)]++
		c[6][byte(u>>48)]++
		c[7][byte(u>>56)]++
	}
	if cap(sc.buf) < n {
		sc.buf = make([]float64, n)
	}
	src, dst := s, sc.buf[:n]
	first := sortable(s[0])
	for d := range 8 {
		shift := 8 * uint(d)
		if c[d][byte(first>>shift)] == n {
			continue // every key shares this digit
		}
		off, sum := &c[d], 0
		for b, k := range off {
			off[b], sum = sum, sum+k
		}
		for _, f := range src {
			b := byte(sortable(f) >> shift)
			dst[off[b]] = f
			off[b]++
		}
		src, dst = dst, src
	}
	if &src[0] != &s[0] {
		copy(s, src)
	}
	if cap(sc.buf) > maxRetainedBatch {
		sc.buf = nil
	}
	radixPool.Put(sc)
}

// sortable maps a float64 to a uint64 in the same order: a set sign bit
// flips every bit (larger magnitudes of negative keys sort first), a clear
// one flips only the sign bit (non-negative keys sort after every negative
// one).
func sortable(f float64) uint64 {
	u := math.Float64bits(f)
	return u ^ (uint64(int64(u)>>63) | 1<<63)
}
