package irs_test

import (
	"errors"
	"math"
	"testing"

	irs "github.com/irsgo/irs"
)

// TestNaNKeyRejected drives every single-threaded insert entry point with a
// NaN key. NaN has no place in the key order: stored, it breaks every
// search that passes it. Entry points without an error result must panic
// with ErrNaNKey, the others return it, and either way the structure must
// be unchanged — same Len, same Count over the whole line, still valid.
func TestNaNKeyRejected(t *testing.T) {
	nan := math.NaN()
	all := func(count func(lo, hi float64) int) int { return count(math.Inf(-1), math.Inf(1)) }
	cases := []struct {
		name string
		// run attempts the NaN insert on a structure already holding 1, 2, 3
		// (when it has one) and reports the error or panic value, plus the
		// structure's Len and full-range Count afterwards.
		run func() (failure any, n, count int)
		// wantN is the Len (and Count) a rejected insert leaves.
		wantN int
	}{
		{"Dynamic.Insert", func() (any, int, int) {
			d := irs.NewDynamic[float64]()
			for _, k := range []float64{1, 2, 3} {
				d.Insert(k)
			}
			p := panicOf(func() { d.Insert(nan) })
			if err := d.Validate(); err != nil {
				t.Errorf("Dynamic invalid after a rejected NaN: %v", err)
			}
			return p, d.Len(), all(d.Count)
		}, 3},
		{"Dynamic.InsertSorted", func() (any, int, int) {
			d, _ := irs.NewDynamicFromSorted([]float64{1, 2, 3})
			p := panicOf(func() { d.InsertSorted([]float64{0.5, nan, 4}) })
			return p, d.Len(), all(d.Count)
		}, 3},
		{"NewStatic", func() (any, int, int) {
			var s *irs.Static[float64]
			p := panicOf(func() { s = irs.NewStatic([]float64{1, nan, 2, 3}) })
			if s != nil {
				return p, s.Len(), all(s.Count)
			}
			return p, 0, 0
		}, 0},
		{"NewDynamicFromUnsorted", func() (any, int, int) {
			var d *irs.Dynamic[float64]
			p := panicOf(func() { d = irs.NewDynamicFromUnsorted([]float64{3, nan, 1}) })
			if d != nil {
				return p, d.Len(), all(d.Count)
			}
			return p, 0, 0
		}, 0},
		{"TreapSampler.Insert", func() (any, int, int) {
			s := irs.NewTreapSampler[float64](1)
			for _, k := range []float64{1, 2, 3} {
				s.Insert(k)
			}
			p := panicOf(func() { s.Insert(nan) })
			return p, s.Len(), all(s.Count)
		}, 3},
		{"ReportSampler.Insert", func() (any, int, int) {
			s := irs.NewReportSampler[float64]()
			for _, k := range []float64{1, 2, 3} {
				s.Insert(k)
			}
			p := panicOf(func() { s.Insert(nan) })
			return p, s.Len(), all(s.Count)
		}, 3},
		{"WeightedTreap.Insert", func() (any, int, int) {
			w, _ := irs.NewWeightedTreapFromItems(1, []irs.WeightedItem[float64]{{Key: 1, Weight: 1}, {Key: 2, Weight: 1}, {Key: 3, Weight: 1}})
			err := w.Insert(nan, 1)
			return err, w.Len(), all(w.Count)
		}, 3},
		{"NewWeightedTreapFromItems", func() (any, int, int) {
			w, err := irs.NewWeightedTreapFromItems(1, []irs.WeightedItem[float64]{{Key: 1, Weight: 1}, {Key: nan, Weight: 1}})
			if w != nil {
				return err, w.Len(), all(w.Count)
			}
			return err, 0, 0
		}, 0},
		{"NewWeightedFenwick", func() (any, int, int) {
			w, err := irs.NewWeightedFenwick([]irs.WeightedItem[float64]{{Key: 1, Weight: 1}, {Key: nan, Weight: 1}})
			if w != nil {
				return err, w.Len(), all(w.Count)
			}
			return err, 0, 0
		}, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			failure, n, count := tc.run()
			err, _ := failure.(error)
			if !errors.Is(err, irs.ErrNaNKey) {
				t.Errorf("NaN insert: got %v, want ErrNaNKey", failure)
			}
			if n != tc.wantN || count != tc.wantN {
				t.Errorf("after the rejected NaN: Len %d, Count %d, want %d and %d", n, count, tc.wantN, tc.wantN)
			}
		})
	}
}

// panicOf runs f and returns the value it panicked with, or nil.
func panicOf(f func()) (p any) {
	defer func() { p = recover() }()
	f()
	return nil
}
