package split

import (
	"math"
	"slices"
	"testing"

	"github.com/irsgo/irs/internal/alias"
	"github.com/irsgo/irs/internal/stats"
	"github.com/irsgo/irs/internal/xrand"
)

// randomMasses draws one of the mass vectors the kernel must survive: up
// to 12 parts, each zero with probability 1/3, otherwise anything from a
// denormal to 1e12, and — one time in four — a single part outweighing the
// rest by thirty orders of magnitude. At least one mass is positive.
func randomMasses(rng *xrand.RNG) []float64 {
	masses := make([]float64, 1+rng.Intn(12))
	for i := range masses {
		switch rng.Intn(6) {
		case 0, 1:
			masses[i] = 0
		case 2:
			masses[i] = math.SmallestNonzeroFloat64 * float64(1+rng.Intn(1000))
		case 3:
			masses[i] = 1e12 * rng.Float64()
		default:
			masses[i] = float64(1 + rng.Intn(100))
		}
	}
	if rng.Intn(4) == 0 {
		masses[rng.Intn(len(masses))] = 1e30
	}
	if !slices.ContainsFunc(masses, func(m float64) bool { return m > 0 }) {
		masses[rng.Intn(len(masses))] = 1
	}
	return masses
}

// TestDrawScatterProperties: for random masses and random t, the segments
// tile [0, t) in part order, a zero-mass part never receives a position,
// and Scatter's output is a permutation of the block in which every part's
// samples keep their block order and land only on positions that drew it.
func TestDrawScatterProperties(t *testing.T) {
	rng := xrand.New(1)
	var p Plan // reused throughout, as the callers reuse theirs
	var block, out []int
	for round := 0; round < 2000; round++ {
		masses := randomMasses(rng)
		n := rng.Intn(5001)
		if err := p.Draw(masses, n, rng); err != nil {
			t.Fatalf("round %d: Draw(%v, %d): %v", round, masses, n, err)
		}
		at := 0
		for i, m := range masses {
			from, to := p.Seg(i)
			if from != at || to < from {
				t.Fatalf("round %d: Seg(%d) = [%d, %d), want it to start at %d (masses %v)", round, i, from, to, at, masses)
			}
			if m == 0 && to != from {
				t.Fatalf("round %d: zero-mass part %d was allocated %d samples (masses %v)", round, i, to-from, masses)
			}
			at = to
		}
		if at != n {
			t.Fatalf("round %d: segments end at %d, want t = %d", round, at, n)
		}

		block = block[:0]
		for j := 0; j < n; j++ {
			block = append(block, j) // a sample is its own block index
		}
		out = Scatter(out[:0], &p, block)
		if len(out) != n {
			t.Fatalf("round %d: Scatter returned %d samples, want %d", round, len(out), n)
		}
		next := make([]int, len(masses)) // next block index each part must hand out
		for i := range masses {
			next[i], _ = p.Seg(i)
		}
		for j, v := range out {
			i := int(p.choice[j])
			if v != next[i] {
				t.Fatalf("round %d: position %d drew part %d and got block[%d], want block[%d]", round, j, i, v, next[i])
			}
			next[i]++
		}
		for i := range masses {
			if _, to := p.Seg(i); next[i] != to {
				t.Fatalf("round %d: part %d handed out up to %d of its segment ending %d", round, i, next[i], to)
			}
		}
	}
}

// TestDrawRejectsBadMasses: nothing is drawn from a vector with no positive
// mass or with a non-finite one — the router's masses arrive over the wire.
func TestDrawRejectsBadMasses(t *testing.T) {
	for _, masses := range [][]float64{nil, {0, 0}, {1, math.Inf(1)}, {math.NaN(), 0}} {
		rng := xrand.New(3)
		before := *rng
		var p Plan
		if err := p.Draw(masses, 10, rng); err == nil {
			t.Errorf("Draw(%v) succeeded", masses)
		}
		if *rng != before {
			t.Errorf("Draw(%v) consumed randomness before failing", masses)
		}
	}
}

// partSampler stands in for a part's own sampler: it consumes the caller's
// RNG the way SampleRunAppend does, and tags each sample with its part so
// a mix-up between parts cannot cancel out.
func partSampler(dst []uint64, part, n int, rng *xrand.RNG) []uint64 {
	for j := 0; j < n; j++ {
		dst = append(dst, uint64(part)<<56|rng.Uint64()>>8)
	}
	return dst
}

// referenceSplit is the construction as the shard engine and the router
// each wrote it out before this package existed — alias table over the
// nonzero masses, one draw per position tallied per column, per-part
// blocks sampled in part order from the same RNG, scatter by per-column
// cursor — kept here straight-line as the oracle for RNG call order.
func referenceSplit(masses []float64, t int, rng *xrand.RNG) ([]uint64, error) {
	var weights []float64
	var nonzero []int
	for i, m := range masses {
		if m > 0 {
			weights = append(weights, m)
			nonzero = append(nonzero, i)
		}
	}
	table, err := alias.New(weights)
	if err != nil {
		return nil, err
	}
	choice := make([]int32, t)
	tally := make([]int, len(weights))
	for j := 0; j < t; j++ {
		k := table.Draw(rng)
		choice[j] = int32(k)
		tally[k]++
	}
	segs := make([][]uint64, len(weights))
	for k := range weights {
		if tally[k] > 0 {
			segs[k] = partSampler(nil, nonzero[k], tally[k], rng)
		}
	}
	out := make([]uint64, 0, t)
	idx := make([]int, len(weights))
	for j := 0; j < t; j++ {
		k := choice[j]
		out = append(out, segs[k][idx[k]])
		idx[k]++
	}
	return out, nil
}

// TestSplitMatchesReference: same seed, same masses, same t — Draw, the
// caller's per-part fill and Scatter return the reference's output element
// for element and leave the RNG in the same state. This is the test that
// fails if the order of RNG calls ever drifts, which is what every
// fixed-seed bit-identity test above this package depends on.
func TestSplitMatchesReference(t *testing.T) {
	gen := xrand.New(2)
	var p Plan
	var block []uint64
	for round := 0; round < 500; round++ {
		masses := randomMasses(gen)
		n := gen.Intn(3000)
		seed := gen.Uint64()

		refRNG := xrand.New(seed)
		want, err := referenceSplit(masses, n, refRNG)
		if err != nil {
			t.Fatal(err)
		}

		rng := xrand.New(seed)
		if err := p.Draw(masses, n, rng); err != nil {
			t.Fatal(err)
		}
		if cap(block) < n {
			block = make([]uint64, n)
		}
		block = block[:n]
		for i := range masses {
			if from, to := p.Seg(i); from < to {
				partSampler(block[from:from:to], i, to-from, rng)
			}
		}
		got := Scatter(nil, &p, block)
		if !slices.Equal(got, want) {
			t.Fatalf("round %d: masses %v t %d seed %d: output differs from the reference", round, masses, n, seed)
		}
		if *rng != *refRNG {
			t.Fatalf("round %d: RNG state differs from the reference after the split", round)
		}
	}
}

// TestTalliesFollowMasses: the per-part sample counts are multinomial in
// the masses (chi-square at alpha = 0.001, fixed seed).
func TestTalliesFollowMasses(t *testing.T) {
	masses := []float64{5, 0, 1, 3, 0, 0.5, 10, 2.5}
	total := 0.0
	for _, m := range masses {
		total += m
	}
	probs := make([]float64, len(masses))
	for i, m := range masses {
		probs[i] = m / total
	}
	const draws = 4000
	counts := make([]int, len(masses))
	rng := xrand.New(4)
	var p Plan
	for round := 0; round < 50; round++ {
		if err := p.Draw(masses, draws, rng); err != nil {
			t.Fatal(err)
		}
		for i := range masses {
			from, to := p.Seg(i)
			counts[i] += to - from
		}
	}
	gof, err := stats.ChiSquareTest(counts, probs, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	if gof.Reject {
		t.Fatalf("tallies %v do not follow masses %v: chi2 = %.2f > %.2f (df %d)", counts, masses, gof.Stat, gof.Critical, gof.DF)
	}
}

// TestDrawScatterZeroAllocs: a warmed Plan with caller-owned block and dst
// allocates nothing — the pin the engine's and the router's own zero-alloc
// pins rest on.
func TestDrawScatterZeroAllocs(t *testing.T) {
	masses := []float64{3, 0, 1, 7, 2}
	const n = 512
	rng := xrand.New(5)
	var p Plan
	block := make([]float64, n)
	dst := make([]float64, 0, n)
	run := func() {
		if err := p.Draw(masses, n, rng); err != nil {
			t.Fatal(err)
		}
		dst = Scatter(dst[:0], &p, block)
	}
	run() // warm the scratch
	if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
		t.Fatalf("warmed Draw + Scatter: %v allocs/run, want 0", allocs)
	}
}
