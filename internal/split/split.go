// Package split is the one construction that carries the paper's sampling
// contract across a partition of the key space — shards inside an engine
// (internal/shard), partitions across nodes (internal/cluster).
//
// A range query for t samples over parts with in-range sampling masses
// m_0 … m_{k-1} (M = Σ m_i) is answered exactly by:
//
//  1. Drawing, for each of the t output positions independently, a part
//     with probability m_i/M — a multinomial (t; m_i/M) allocation, O(1) per
//     draw through a Walker alias table built over the positive masses only,
//     so no rounding edge can ever select a zero-mass part.
//  2. Having each part draw its tally of i.i.d. mass-proportional samples
//     of its own slice of the range, into its segment of one block.
//  3. Handing each part's samples out, in block order, to the positions that
//     drew that part.
//
// Conditioned on the part a sample is mass-proportional over that part's
// slice, and the part is chosen with probability proportional to the
// slice's mass, so every output position follows the exact target
// distribution over the whole range. Positions choose their parts
// independently and a part's samples are i.i.d., so which of them a
// position receives does not matter: the t outputs are mutually independent
// and independent of every earlier answer, which is the Hu–Qiao–Tao
// contract. The masses and the per-part draws must see one snapshot of the
// data; how that is arranged (shard read locks, probe-then-sample RPCs) is
// the caller's business.
//
// The caller owns all scratch: a Plan is reused across queries and the
// block is the caller's, so a warmed Draw + Scatter allocates nothing.
package split

import (
	"github.com/irsgo/irs/internal/alias"
	"github.com/irsgo/irs/internal/xrand"
)

// Plan is one query's allocation of output positions to parts, plus the
// scratch to build it. The zero value is ready; a Plan must not be used by
// two queries at once.
type Plan struct {
	builder alias.Builder
	table   alias.Table
	weights []float64 // the positive masses, alias table input
	part    []int32   // part index per alias column
	choice  []int32   // drawn part per output position
	bounds  []int     // part i owns block[bounds[i]:bounds[i+1]]
	next    []int     // Scatter's read cursor per part
}

// Draw allocates t output positions over len(masses) parts, part i with
// probability masses[i]/Σmasses, consuming exactly two rng outputs per
// position (one alias draw). It fails, drawing nothing, unless every mass
// is finite and non-negative and at least one is positive.
func (p *Plan) Draw(masses []float64, t int, rng *xrand.RNG) error {
	p.weights, p.part = p.weights[:0], p.part[:0]
	for i, m := range masses {
		if m > 0 {
			p.weights = append(p.weights, m)
			p.part = append(p.part, int32(i))
		}
	}
	if err := p.builder.Build(&p.table, p.weights); err != nil {
		return err
	}
	p.bounds = resize(p.bounds, len(masses)+1)
	clear(p.bounds)
	p.choice = resize(p.choice, t)
	for j := range p.choice {
		i := p.part[p.table.Draw(rng)]
		p.choice[j] = i
		p.bounds[i+1]++
	}
	for i := range masses {
		p.bounds[i+1] += p.bounds[i]
	}
	return nil
}

// Seg returns part i's segment [from, to) of the t-sample block: the
// caller fills block[from:to] with to-from i.i.d. samples of part i.
// Segments tile [0, t) in part order; a zero-mass part's is empty.
func (p *Plan) Seg(i int) (from, to int) { return p.bounds[i], p.bounds[i+1] }

// Scatter appends the block's t samples to dst in draw order: position j
// receives the next unread sample of the part it drew.
func Scatter[K any](dst []K, p *Plan, block []K) []K {
	p.next = append(p.next[:0], p.bounds[:len(p.bounds)-1]...)
	for _, i := range p.choice {
		dst = append(dst, block[p.next[i]])
		p.next[i]++
	}
	return dst
}

func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
