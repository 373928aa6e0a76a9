package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestDistinctSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("seeds 1 and 2 collided on %d of 100 outputs", same)
	}
}

// TestNameSeedSeparatesStreams: NameSeed is a pure function of (seed,
// name), and no two of a set of names, under one base seed or two, get
// seeds whose StreamSeed sequences meet within the first million streams.
func TestNameSeedSeparatesStreams(t *testing.T) {
	if NameSeed(1, "events") != NameSeed(1, "events") {
		t.Fatal("NameSeed is not deterministic")
	}
	// streamStep is odd, so it has an inverse mod 2^64 (Newton iteration);
	// sequences from a and b meet iff (b-a)·inv is a small stream offset.
	inv := uint64(streamStep)
	for range 5 {
		inv *= 2 - streamStep*inv
	}
	if inv*streamStep != 1 {
		t.Fatalf("%#x is not the inverse of streamStep", inv)
	}
	const streams = 1 << 20
	var seeds []uint64
	for _, base := range []uint64{1, 2} {
		for _, name := range []string{"", "a", "b", "demo", "demo2", "events", "logs", "ab", "ba"} {
			seeds = append(seeds, NameSeed(base, name))
		}
	}
	for i, a := range seeds {
		for _, b := range seeds[i+1:] {
			if off := (b - a) * inv; off < streams || -off < streams {
				t.Fatalf("seeds %#x and %#x share a stream at offset %d", a, b, int64(off))
			}
		}
	}
}

func TestReseedResets(t *testing.T) {
	r := New(7)
	first := make([]uint64, 16)
	for i := range first {
		first[i] = r.Uint64()
	}
	r.Reseed(7)
	for i := range first {
		if got := r.Uint64(); got != first[i] {
			t.Fatalf("after Reseed output %d = %d, want %d", i, got, first[i])
		}
	}
}

func TestUint64nBounds(t *testing.T) {
	r := New(3)
	for _, n := range []uint64{1, 2, 3, 7, 100, 1 << 40, math.MaxUint64} {
		for i := 0; i < 200; i++ {
			if v := r.Uint64n(n); v >= n {
				t.Fatalf("Uint64n(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestUint64nPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Uint64n(0) did not panic")
		}
	}()
	New(1).Uint64n(0)
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	for _, n := range []int{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Intn(%d) did not panic", n)
				}
			}()
			New(1).Intn(n)
		}()
	}
}

func TestIntRange(t *testing.T) {
	r := New(5)
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		v := r.IntRange(-3, 3)
		if v < -3 || v > 3 {
			t.Fatalf("IntRange(-3,3) = %d", v)
		}
		seen[v] = true
	}
	for v := -3; v <= 3; v++ {
		if !seen[v] {
			t.Fatalf("IntRange(-3,3) never produced %d in 1000 draws", v)
		}
	}
	if got := r.IntRange(9, 9); got != 9 {
		t.Fatalf("IntRange(9,9) = %d, want 9", got)
	}
}

func TestIntRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("IntRange(2,1) did not panic")
		}
	}()
	New(1).IntRange(2, 1)
}

// TestUint64nUniform checks exact-looking uniformity of the bounded sampler
// on a small modulus with a chi-square-style tolerance.
func TestUint64nUniform(t *testing.T) {
	r := New(11)
	const n = 10
	const draws = 200000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Uint64n(n)]++
	}
	expected := float64(draws) / n
	chi2 := 0.0
	for _, c := range counts {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	// 9 degrees of freedom; 27.9 is the 0.001 critical value.
	if chi2 > 27.9 {
		t.Fatalf("chi-square = %.2f exceeds 27.9; counts = %v", chi2, counts)
	}
}

func TestFloat64Range01(t *testing.T) {
	r := New(13)
	sum := 0.0
	for i := 0; i < 100000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", v)
		}
		sum += v
	}
	mean := sum / 100000
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(17)
	for i := 0; i < 10000; i++ {
		v := r.Float64Range(-2, 5)
		if v < -2 || v >= 5 {
			t.Fatalf("Float64Range(-2,5) = %v", v)
		}
	}
}

func TestBernoulliEdges(t *testing.T) {
	r := New(19)
	for i := 0; i < 100; i++ {
		if r.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !r.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
		if r.Bernoulli(-0.5) {
			t.Fatal("Bernoulli(-0.5) returned true")
		}
		if !r.Bernoulli(1.5) {
			t.Fatal("Bernoulli(1.5) returned false")
		}
	}
}

func TestBernoulliRate(t *testing.T) {
	r := New(23)
	hits := 0
	const draws = 100000
	for i := 0; i < draws; i++ {
		if r.Bernoulli(0.3) {
			hits++
		}
	}
	rate := float64(hits) / draws
	if math.Abs(rate-0.3) > 0.01 {
		t.Fatalf("Bernoulli(0.3) empirical rate = %v", rate)
	}
}

func TestNorm64Moments(t *testing.T) {
	r := New(29)
	const draws = 200000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < draws; i++ {
		v := r.Norm64()
		sum += v
		sumSq += v * v
	}
	mean := sum / draws
	variance := sumSq/draws - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("Norm64 mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Fatalf("Norm64 variance = %v, want ~1", variance)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(31)
	check := func(n uint8) bool {
		p := r.Perm(int(n))
		if len(p) != int(n) {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= int(n) || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestShuffleUniformOnThree(t *testing.T) {
	r := New(37)
	counts := map[[3]int]int{}
	const draws = 60000
	for i := 0; i < draws; i++ {
		a := [3]int{0, 1, 2}
		r.Shuffle(3, func(i, j int) { a[i], a[j] = a[j], a[i] })
		counts[a]++
	}
	if len(counts) != 6 {
		t.Fatalf("expected 6 permutations, saw %d", len(counts))
	}
	expected := float64(draws) / 6
	for p, c := range counts {
		if math.Abs(float64(c)-expected) > expected*0.1 {
			t.Fatalf("permutation %v count %d deviates from %v", p, c, expected)
		}
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(41)
	child := parent.Split()
	same := 0
	for i := 0; i < 100; i++ {
		if parent.Uint64() == child.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("parent and split child matched on %d of 100 outputs", same)
	}
}

func TestZeroStateGuard(t *testing.T) {
	// Directly exercise the guard: a seed that would map to the all-zero
	// state cannot exist with splitmix64, so construct the RNG manually.
	r := &RNG{}
	r.Reseed(0)
	if r.s0|r.s1|r.s2|r.s3 == 0 {
		t.Fatal("Reseed(0) produced the all-zero state")
	}
	// The first outputs must not be all zero either.
	if r.Uint64() == 0 && r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("suspiciously zero output stream")
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += r.Uint64()
	}
	_ = sink
}

func BenchmarkUint64n(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += r.Uint64n(1000003)
	}
	_ = sink
}

func BenchmarkFloat64(b *testing.B) {
	r := New(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += r.Float64()
	}
	_ = sink
}
