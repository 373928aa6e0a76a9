package xrand_test

import (
	"math/big"
	"testing"

	"github.com/irsgo/irs/internal/xrand/xrandtest"
)

// TestUint64nExact pins Lemire's bounded draw without sampling it. The
// outputs x whose high product word ⌊x·n/2⁶⁴⌋ is v form one interval; their
// low words step by n from the first one's, so only that first x can fall
// below the rejection threshold 2⁶⁴ mod n. Counting in big integers, every
// v must keep exactly ⌊2⁶⁴/n⌋ accepted outputs — the same for all v, so
// the draw is exactly uniform. The real Uint64n is then driven at the
// interval's ends: accepted outputs return v after one output, a rejected
// first one draws again.
func TestUint64nExact(t *testing.T) {
	two64 := new(big.Int).Lsh(big.NewInt(1), 64)
	bounds := []uint64{^uint64(0)}
	for _, k := range []uint{1, 2, 5, 32, 63} {
		bounds = append(bounds, 1<<k-1, 1<<k, 1<<k+1)
	}
	for _, n := range bounds {
		bn := new(big.Int).SetUint64(n)
		q, thresh := new(big.Int).DivMod(two64, bn, new(big.Int))
		// firstX is ⌈v·2⁶⁴/n⌉, the first output mapping to v.
		firstX := func(v uint64) *big.Int {
			x := new(big.Int).Mul(new(big.Int).SetUint64(v), two64)
			return x.Div(x.Add(x, new(big.Int).Sub(bn, big.NewInt(1))), bn)
		}
		vs := []uint64{0, 1, 2, n / 2, n - 2, n - 1}
		if n <= 64 {
			vs = vs[:0]
			for v := range n {
				vs = append(vs, v)
			}
		}
		for _, v := range vs {
			if v >= n {
				continue
			}
			lo, hi := firstX(v), two64
			if v < n-1 {
				hi = firstX(v + 1)
			}
			low := new(big.Int).Sub(new(big.Int).Mul(lo, bn), new(big.Int).Mul(new(big.Int).SetUint64(v), two64))
			rejectFirst := low.Cmp(thresh) < 0
			accepted := new(big.Int).Sub(hi, lo)
			if rejectFirst {
				accepted.Sub(accepted, big.NewInt(1))
			}
			if accepted.Cmp(q) != 0 {
				t.Fatalf("n = %d, v = %d: %v accepted outputs, want %v", n, v, accepted, q)
			}
			last := new(big.Int).Sub(hi, big.NewInt(1)).Uint64()
			if last != xrandtest.Index(v, n) {
				t.Fatalf("n = %d, v = %d: Index = %#x, want %#x", n, v, xrandtest.Index(v, n), last)
			}
			first := lo.Uint64()
			if rejectFirst {
				if _, once := draw(first, n); once {
					t.Fatalf("n = %d, v = %d: output %#x is below the threshold but was accepted", n, v, first)
				}
				first++
			}
			for _, x := range []uint64{first, last} {
				if got, once := draw(x, n); got != v || !once {
					t.Fatalf("n = %d: output %#x gave %d (one output: %v), want %d", n, x, got, once, v)
				}
			}
		}
	}
}

// draw runs Uint64n(n) on a generator whose next output is x and reports
// the result and whether it took that one output only.
func draw(x, n uint64) (uint64, bool) {
	r, once := xrandtest.Yielding(x), xrandtest.Yielding(x)
	got := r.Uint64n(n)
	once.Uint64()
	return got, *r == *once
}
