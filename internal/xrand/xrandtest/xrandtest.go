// Package xrandtest drives samplers through chosen generator outputs, so a
// test can compute a draw's distribution exactly instead of sampling it.
//
// Every sampler in this repository is a pure function of the outputs it
// takes from an *xrand.RNG: a bounded integer (Uint64n, Lemire's method)
// or a 53-bit uniform (Float64). Yielding builds a generator whose next one
// or two outputs are chosen; Index and Unit name the output behind a
// chosen Uint64n or Float64 result; Steps finds, by bisection over the
// 2⁵³-point Float64 grid, where a monotone decision changes its answer.
// Counting grid points per answer gives each outcome's probability as an
// exact rational.
package xrandtest

import (
	"math/big"
	"math/bits"
	"unsafe"

	"github.com/irsgo/irs/internal/xrand"
)

// Grid is the number of values Float64 can return: m·2⁻⁵³ for m < Grid.
const Grid = 1 << 53

// Yielding returns a generator whose next outputs are outs (one or two);
// later outputs are whatever xoshiro256++ produces from there. It writes
// the generator's four state words directly, so it relies on RNG's layout;
// TestYielding pins that.
func Yielding(outs ...uint64) *xrand.RNG {
	var s [4]uint64
	switch len(outs) {
	case 1:
		// out₁ = rotl(s0+s3, 23) + s0; with s0 = 0 it is rotl(s3, 23).
		s = [4]uint64{0, 1, 0, bits.RotateLeft64(outs[0], -23)}
	case 2:
		// Choose s0 = b and s1 = s3^b: after one step s0 is 0 and s3 is
		// rotl(b, 45), so out₂ = rotl(b, 68) = rotl(b, 4). Then s3 solves
		// out₁ = rotl(b+s3, 23) + b. Neither output reads s2; it is 1 so
		// the state is never all zero, xoshiro's fixed point.
		b := bits.RotateLeft64(outs[1], -4)
		s3 := bits.RotateLeft64(outs[0]-b, -23) - b
		s = [4]uint64{b, s3 ^ b, 1, s3}
	default:
		panic("xrandtest: Yielding takes one or two outputs")
	}
	r := xrand.New(0)
	*(*[4]uint64)(unsafe.Pointer(r)) = s
	return r
}

// Index returns the output on which Uint64n(n) returns v without drawing
// again (v < n): the largest output that maps to v, whose low product word
// is at least 2⁶⁴ − n and so never below Lemire's rejection threshold.
func Index(v, n uint64) uint64 {
	if v >= n {
		panic("xrandtest: Index out of range")
	}
	x, _ := bits.Div64(v, ^uint64(0), n) // ⌊((v+1)·2⁶⁴ − 1)/n⌋
	return x
}

// Unit returns the output on which Float64 returns m·2⁻⁵³ (m < Grid).
func Unit(m uint64) uint64 { return m << 11 }

// Step is a maximal run [From, To) of grid points on which a decision
// returns Value.
type Step struct {
	From, To uint64
	Value    int
}

// Steps partitions [0, Grid) into the runs on which f is constant. f must
// take each of its values on one contiguous run (a threshold decision such
// as Float64() < p, or a search over ascending cumulative sums), so equal
// answers at both ends of an interval mean the whole interval answers the
// same; each change of answer is then found with O(log Grid) calls.
func Steps(f func(m uint64) int) []Step {
	var out []Step
	var split func(lo, hi uint64, flo, fhi int) // f(lo) = flo, f(hi) = fhi, lo < hi
	split = func(lo, hi uint64, flo, fhi int) {
		if flo == fhi {
			return
		}
		if hi-lo == 1 {
			out[len(out)-1].To = hi
			out = append(out, Step{From: hi, Value: fhi})
			return
		}
		mid := lo + (hi-lo)/2
		fmid := f(mid)
		split(lo, mid, flo, fmid)
		split(mid, hi, fmid, fhi)
	}
	first, last := f(0), f(Grid-1)
	out = append(out, Step{From: 0, Value: first})
	split(0, Grid-1, first, last)
	out[len(out)-1].To = Grid
	return out
}

// Prob returns the probability of a run of grid points, n/Grid.
func Prob(n uint64) *big.Rat {
	return new(big.Rat).SetFrac(new(big.Int).SetUint64(n), new(big.Int).SetUint64(Grid))
}

// AliasLaw returns the exact law of an outcome decided by one alias-table
// draw with n columns — Uint64n(n) for the column, then Float64 against the
// column's threshold — as the first two outputs draw consumes: each column
// weighs 1/n and is split by Steps over its threshold. draw may consume
// more outputs after those two, as long as the outcome it returns does not
// depend on them.
func AliasLaw(n int, draw func(r *xrand.RNG) int) map[int]*big.Rat {
	law := map[int]*big.Rat{}
	col := new(big.Rat).SetFrac64(1, int64(n))
	for j := range n {
		x := Index(uint64(j), uint64(n))
		for _, s := range Steps(func(m uint64) int { return draw(Yielding(x, Unit(m))) }) {
			p := new(big.Rat).Mul(col, Prob(s.To-s.From))
			if q, ok := law[s.Value]; ok {
				p.Add(p, q)
			}
			law[s.Value] = p
		}
	}
	return law
}

// Exact returns x's value as an exact rational (x must be finite).
func Exact(x float64) *big.Rat { return new(big.Rat).SetFloat64(x) }

// Ulps returns |got − want| in units of 2⁻⁵³, as a float for messages and
// bounds.
func Ulps(got, want *big.Rat) float64 {
	d := new(big.Rat).Sub(got, want)
	d.Abs(d)
	d.Mul(d, new(big.Rat).SetInt64(Grid))
	f, _ := d.Float64()
	return f
}

// ByIndex runs draw once for each value v < n that a Uint64n(n) draw can
// return, on a generator whose next output makes it return v, and returns
// the results in order of v. ok is false if some call took any output but
// that one, so a sampler that maps one bounded draw to one key is exactly
// uniform iff ok holds and the results are its keys, each once.
func ByIndex[K any](n uint64, draw func(r *xrand.RNG) K) (out []K, ok bool) {
	ok = true
	for v := range n {
		x := Index(v, n)
		r, once := Yielding(x), Yielding(x)
		out = append(out, draw(r))
		once.Uint64()
		ok = ok && *r == *once
	}
	return out, ok
}
