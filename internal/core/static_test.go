package core

import (
	"math"
	"slices"
	"sort"
	"testing"

	"github.com/irsgo/irs/internal/xrand"
	"github.com/irsgo/irs/internal/xrand/xrandtest"
)

func TestStaticConstruction(t *testing.T) {
	s := NewStatic([]int{5, 1, 3, 2, 4})
	if s.Len() != 5 {
		t.Fatalf("Len = %d", s.Len())
	}
	for i := 0; i < 5; i++ {
		if s.At(i) != i+1 {
			t.Fatalf("At(%d) = %d", i, s.At(i))
		}
	}
	if _, err := NewStaticFromSorted([]int{2, 1}); err != ErrUnsorted {
		t.Fatalf("err = %v", err)
	}
	s2, err := NewStaticFromSorted([]int{1, 2, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 4 {
		t.Fatalf("Len = %d", s2.Len())
	}
}

func TestStaticInputNotRetained(t *testing.T) {
	in := []int{3, 1, 2}
	s := NewStatic(in)
	in[0] = 99
	if s.At(2) == 99 {
		t.Fatal("NewStatic retained the caller's slice")
	}
}

func TestStaticCount(t *testing.T) {
	s := NewStatic([]int{10, 20, 20, 20, 30, 40})
	cases := []struct{ lo, hi, want int }{
		{20, 20, 3},
		{10, 40, 6},
		{15, 35, 4},
		{41, 50, 0},
		{0, 9, 0},
		{21, 29, 0},
		{40, 10, 0},
	}
	for _, tc := range cases {
		if got := s.Count(tc.lo, tc.hi); got != tc.want {
			t.Fatalf("Count(%d,%d) = %d, want %d", tc.lo, tc.hi, got, tc.want)
		}
	}
}

func TestStaticSampleErrors(t *testing.T) {
	s := NewStatic([]int{1, 2, 3})
	r := xrand.New(1)
	if _, err := s.Sample(1, 3, -1, r); err != ErrInvalidCount {
		t.Fatalf("negative t: err = %v", err)
	}
	if out, err := s.Sample(1, 3, 0, r); err != nil || len(out) != 0 {
		t.Fatalf("t=0: out=%v err=%v", out, err)
	}
	if _, err := s.Sample(10, 20, 5, r); err != ErrEmptyRange {
		t.Fatalf("empty range: err = %v", err)
	}
	if _, err := s.SampleWithoutReplacement(10, 20, 5, r); err != ErrEmptyRange {
		t.Fatalf("WOR empty range: err = %v", err)
	}
	if _, err := s.SampleWithoutReplacement(1, 3, -1, r); err != ErrInvalidCount {
		t.Fatalf("WOR negative: err = %v", err)
	}
}

// TestStaticSampleUniform: a sample is keys[a + Uint64n(count)], so
// driving that one bounded draw through every value it can take returns
// each in-range key exactly once — the draw is exactly uniform.
func TestStaticSampleUniform(t *testing.T) {
	keys := make([]int, 1000)
	for i := range keys {
		keys[i] = i / 3 // duplicates: each key stored three times
	}
	s := NewStatic(keys)
	got, ok := xrandtest.ByIndex(uint64(s.Count(100, 299)), func(r *xrand.RNG) int {
		out, err := s.Sample(100, 299, 1, r)
		if err != nil {
			t.Fatal(err)
		}
		return out[0]
	})
	if !ok {
		t.Fatal("a one-sample draw took more than its one bounded output")
	}
	if want := keys[300:900]; !slices.Equal(got, want) {
		t.Fatalf("the bounded draw's values give %v, want each of %v once", got, want)
	}
}

func TestStaticWORDistinct(t *testing.T) {
	n := 500
	keys := make([]int, n)
	for i := range keys {
		keys[i] = i * 2 // unique, even
	}
	s := NewStatic(keys)
	r := xrand.New(3)
	out, err := s.SampleWithoutReplacement(100, 700, 50, r)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 50 {
		t.Fatalf("got %d samples", len(out))
	}
	seen := map[int]bool{}
	for _, v := range out {
		if v < 100 || v > 700 || v%2 != 0 {
			t.Fatalf("bad sample %d", v)
		}
		if seen[v] {
			t.Fatalf("duplicate sample %d", v)
		}
		seen[v] = true
	}
}

func TestStaticWORWholeRange(t *testing.T) {
	s := NewStatic([]int{1, 2, 3, 4, 5})
	r := xrand.New(4)
	out, err := s.SampleWithoutReplacement(1, 5, 10, r)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 5 {
		t.Fatalf("got %d samples, want all 5", len(out))
	}
	sort.Ints(out)
	for i, v := range out {
		if v != i+1 {
			t.Fatalf("out = %v", out)
		}
	}
}

// TestStaticWORUniformSubsets draws many WOR pairs from {0..4} and checks
// every 2-subset appears with equal frequency.
func TestStaticWORUniformSubsets(t *testing.T) {
	s := NewStatic([]int{0, 1, 2, 3, 4})
	r := xrand.New(5)
	counts := map[[2]int]int{}
	const draws = 100000
	for i := 0; i < draws; i++ {
		out, err := s.SampleWithoutReplacement(0, 4, 2, r)
		if err != nil {
			t.Fatal(err)
		}
		if out[0] == out[1] {
			t.Fatalf("duplicate in WOR pair %v", out)
		}
		pair := [2]int{out[0], out[1]}
		if pair[0] > pair[1] {
			pair[0], pair[1] = pair[1], pair[0]
		}
		counts[pair]++
	}
	if len(counts) != 10 {
		t.Fatalf("saw %d distinct pairs, want 10", len(counts))
	}
	expected := float64(draws) / 10
	for p, c := range counts {
		if math.Abs(float64(c)-expected) > expected*0.06 {
			t.Fatalf("pair %v count %d deviates from %.0f", p, c, expected)
		}
	}
}

// TestStaticWOROrderUniform checks the returned order is itself random:
// each element of a 3-element range is first with ~1/3 frequency.
func TestStaticWOROrderUniform(t *testing.T) {
	s := NewStatic([]int{0, 1, 2})
	r := xrand.New(6)
	first := make([]int, 3)
	const draws = 60000
	for i := 0; i < draws; i++ {
		out, err := s.SampleWithoutReplacement(0, 2, 3, r)
		if err != nil {
			t.Fatal(err)
		}
		first[out[0]]++
	}
	for v, c := range first {
		if math.Abs(float64(c)-draws/3.0) > draws/3.0*0.06 {
			t.Fatalf("value %d first %d times, want ~%d", v, c, draws/3)
		}
	}
}

func TestStaticDuplicateBias(t *testing.T) {
	// 20 appears 3 times, 30 once: 20 should be sampled 3x as often.
	s := NewStatic([]int{20, 20, 20, 30})
	r := xrand.New(7)
	out, err := s.Sample(20, 30, 100000, r)
	if err != nil {
		t.Fatal(err)
	}
	twenties := 0
	for _, v := range out {
		if v == 20 {
			twenties++
		}
	}
	frac := float64(twenties) / float64(len(out))
	if frac < 0.72 || frac > 0.78 {
		t.Fatalf("20 sampled with frequency %.3f, want ~0.75", frac)
	}
}

func TestStaticEmpty(t *testing.T) {
	s := NewStatic[int](nil)
	if s.Len() != 0 {
		t.Fatalf("Len = %d", s.Len())
	}
	if _, err := s.Sample(0, 10, 1, xrand.New(8)); err != ErrEmptyRange {
		t.Fatalf("err = %v", err)
	}
}
