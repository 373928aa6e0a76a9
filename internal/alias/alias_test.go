package alias

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/irsgo/irs/internal/xrand"
)

func TestErrors(t *testing.T) {
	cases := []struct {
		name    string
		weights []float64
		err     error
	}{
		{"empty", nil, ErrEmpty},
		{"negative", []float64{1, -1}, ErrInvalidWeight},
		{"nan", []float64{1, math.NaN()}, ErrInvalidWeight},
		{"inf", []float64{1, math.Inf(1)}, ErrInvalidWeight},
		{"all zero", []float64{0, 0, 0}, ErrZeroTotal},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := New(tc.weights); err != tc.err {
				t.Fatalf("New(%v) error = %v, want %v", tc.weights, err, tc.err)
			}
		})
	}
}

func TestSingleOutcome(t *testing.T) {
	tbl, err := New([]float64{3.5})
	if err != nil {
		t.Fatal(err)
	}
	r := xrand.New(1)
	for i := 0; i < 100; i++ {
		if got := tbl.Draw(r); got != 0 {
			t.Fatalf("Draw = %d, want 0", got)
		}
	}
	if tbl.Total() != 3.5 {
		t.Fatalf("Total = %v", tbl.Total())
	}
	if tbl.Len() != 1 {
		t.Fatalf("Len = %d", tbl.Len())
	}
}

// TestZeroWeightNeverDrawn: zero weights have probability exactly zero
// (checkExact), interleaved with positive ones.
func TestZeroWeightNeverDrawn(t *testing.T) {
	checkExact(t, []float64{0, 5, 0, 1, 0, 0, 2, 0})
}

// TestExtremeRatio: with a 1e12 ratio between two weights the light item
// keeps its share, exactly up to the table's grid (it is drawn on about
// 2⁻⁴⁰ of the outcomes, far below what any sampled count could resolve).
func TestExtremeRatio(t *testing.T) {
	law := checkExact(t, []float64{1, 1e12})
	if law[0].Sign() == 0 {
		t.Fatal("the light item is never drawn")
	}
}

// TestPropertyDrawInRangeAndPositive is a property test: for random weight
// vectors, every draw is in range and lands on a positive-weight index.
func TestPropertyDrawInRangeAndPositive(t *testing.T) {
	r := xrand.New(6)
	check := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		weights := make([]float64, len(raw))
		anyPositive := false
		for i, v := range raw {
			weights[i] = float64(v)
			if v > 0 {
				anyPositive = true
			}
		}
		if !anyPositive {
			weights[0] = 1
		}
		tbl, err := New(weights)
		if err != nil {
			return false
		}
		for i := 0; i < 50; i++ {
			idx := tbl.Draw(r)
			if idx < 0 || idx >= len(weights) || weights[idx] == 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestBuilderReuse(t *testing.T) {
	var b Builder
	var tbl Table
	r := xrand.New(7)
	// Build repeatedly with different sizes; each build must be correct.
	for round := 0; round < 50; round++ {
		n := 1 + round%17
		weights := make([]float64, n)
		for i := range weights {
			weights[i] = float64(i + 1)
		}
		if err := b.Build(&tbl, weights); err != nil {
			t.Fatal(err)
		}
		if tbl.Len() != n {
			t.Fatalf("Len = %d, want %d", tbl.Len(), n)
		}
		for i := 0; i < 100; i++ {
			idx := tbl.Draw(r)
			if idx < 0 || idx >= n {
				t.Fatalf("draw %d out of range [0,%d)", idx, n)
			}
		}
	}
}

func TestBuilderReuseAllocFree(t *testing.T) {
	var b Builder
	var tbl Table
	weights := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	if err := b.Build(&tbl, weights); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := b.Build(&tbl, weights); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("rebuild allocated %v times per run, want 0", allocs)
	}
}

func BenchmarkBuild1e4(b *testing.B) {
	weights := make([]float64, 10000)
	r := xrand.New(8)
	for i := range weights {
		weights[i] = r.Float64() + 0.01
	}
	var builder Builder
	var tbl Table
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := builder.Build(&tbl, weights); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDraw(b *testing.B) {
	weights := make([]float64, 10000)
	r := xrand.New(9)
	for i := range weights {
		weights[i] = r.Float64() + 0.01
	}
	tbl, err := New(weights)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var sink int
	for i := 0; i < b.N; i++ {
		sink += tbl.Draw(r)
	}
	_ = sink
}
