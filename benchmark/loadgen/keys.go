// Package loadgen is the load generator of the serving benchmark: seed-pure
// key and range generation, an absolute-timeline open-loop pacer and a
// closed loop (both clock-injected), latency percentiles, and /metrics
// text parsing. It imports nothing from the system under test.
package loadgen

import (
	"math"
	"math/rand/v2"
	"sort"
)

// KeySpan is the key domain: every generated key lies in [0, KeySpan).
const KeySpan = 1e6

// Keys returns n sorted keys that are a pure function of seed: half
// uniform on [0, KeySpan), half drawn from a mixture of four Gaussians
// whose centres and widths the seed places, so equal-width key ranges (and
// therefore shards and partitions) are unevenly dense.
func Keys(seed uint64, n int) []float64 {
	rng := rand.New(rand.NewPCG(seed, 0x6b657973)) // "keys"
	type comp struct{ mu, sigma float64 }
	comps := make([]comp, 4)
	for i := range comps {
		comps[i] = comp{
			mu:    KeySpan * (0.1 + 0.8*rng.Float64()),
			sigma: KeySpan * (0.005 + 0.03*rng.Float64()),
		}
	}
	keys := make([]float64, n)
	for i := range keys {
		if i%2 == 0 {
			keys[i] = rng.Float64() * KeySpan
			continue
		}
		c := comps[rng.IntN(len(comps))]
		for {
			k := c.mu + c.sigma*rng.NormFloat64()
			if k >= 0 && k < KeySpan {
				keys[i] = k
				break
			}
		}
	}
	sort.Float64s(keys)
	return keys
}

// Query is one sample request: T samples from [Lo, Hi].
type Query struct {
	Lo, Hi float64
	T      int
}

// Ranges turns a request index into a query range chosen by selectivity —
// the share of the sorted keys the range covers — not by key width, so a
// request costs the same wherever the Gaussian clumps fall. At is a pure
// function of (Seed, i): any caller, in any order, in any process, gets
// the same request i.
type Ranges struct {
	Seed uint64
	// Keys are the sorted generated keys; ranges start and end on keys, so
	// no range is ever empty while those keys stay stored.
	Keys []float64
	// SelLo and SelHi bound the selectivity, drawn log-uniformly between
	// them (0 < SelLo <= SelHi <= 1).
	SelLo, SelHi float64
	// Split, when positive, is the rank at which a two-node cluster divides
	// the keys: even requests then fall inside one side, odd requests span
	// both.
	Split int
	T     int
}

// At returns request i.
func (r Ranges) At(i uint64) Query {
	var p rand.PCG
	p.Seed(r.Seed, i)
	u := func() float64 { return float64(p.Uint64()>>11) / (1 << 53) }
	n := len(r.Keys)
	sel := r.SelLo * math.Pow(r.SelHi/r.SelLo, u())
	w := int(math.Round(sel * float64(n)))
	w = min(max(w, 1), n)
	lo, hi := 0, n-w // inclusive bounds of the start rank
	if r.Split > 0 {
		switch {
		case i%2 == 1: // spanning: start left of the split, end at or right of it
			w = max(w, 2)
			lo, hi = max(0, r.Split-w+1), min(r.Split-1, n-w)
		case u() < 0.5: // inside the left partition
			w = min(w, r.Split)
			lo, hi = 0, r.Split-w
		default: // inside the right partition
			w = min(w, n-r.Split)
			lo, hi = r.Split, n-w
		}
	}
	start := lo + int(u()*float64(hi-lo+1))
	start = min(start, hi)
	return Query{Lo: r.Keys[start], Hi: r.Keys[start+w-1], T: r.T}
}
