package shard

import (
	"errors"
	"math"
	"testing"

	"github.com/irsgo/irs/internal/weighted"
	"github.com/irsgo/irs/internal/xrand"
)

// TestWeightAboveCapRejected: a weight above weighted.MaxWeight is refused
// at every admission point with ErrInvalidWeight before anything is
// stored, on one shard and on two. Two keys of weight MaxFloat64 and one
// of weight 1 used to be admitted: their range mass overflowed to +Inf,
// and one shard then drew the weight-1 key every time while two shards
// failed with the alias builder's raw error. At the cap itself the mass of
// the same three keys is finite and every draw is a heavy key.
func TestWeightAboveCapRejected(t *testing.T) {
	heavy := []weighted.Item[float64]{{Key: 1, Weight: math.MaxFloat64}, {Key: 2, Weight: math.MaxFloat64}, {Key: 3, Weight: 1}}
	for _, bad := range []float64{math.MaxFloat64, math.Nextafter(weighted.MaxWeight, math.Inf(1)), math.Inf(1)} {
		if weighted.ValidWeight(bad) {
			t.Fatalf("ValidWeight(%g) = true", bad)
		}
		for _, splits := range [][]float64{nil, {2}} {
			w, err := NewWeightedFromSplits(splits, 1)
			if err != nil {
				t.Fatal(err)
			}
			if err := w.Insert(3, 1); err != nil {
				t.Fatal(err)
			}
			for name, err := range map[string]error{
				"Insert":      w.Insert(1, bad),
				"InsertBatch": w.InsertBatch([]weighted.Item[float64]{{Key: 1, Weight: 1}, {Key: 2, Weight: bad}}),
				"UpdateWeight": func() error {
					_, err := w.UpdateWeight(3, bad)
					return err
				}(),
			} {
				if !errors.Is(err, weighted.ErrInvalidWeight) {
					t.Fatalf("%d shards: %s with weight %g: err = %v, want ErrInvalidWeight", len(splits)+1, name, bad, err)
				}
			}
			if n, m := w.RangeStats(0, 5); n != 1 || m != 1 {
				t.Fatalf("%d shards: after rejected weights RangeStats = (%d, %g), want (1, 1)", len(splits)+1, n, m)
			}
		}
		items := append([]weighted.Item[float64](nil), heavy...)
		items[0].Weight = bad
		if _, err := NewWeightedFromItems(items, 2, 1); !errors.Is(err, weighted.ErrInvalidWeight) {
			t.Fatalf("NewWeightedFromItems with weight %g: err = %v", bad, err)
		}
		if _, err := NewWeightedFromSortedItems(items, 2, 1); !errors.Is(err, weighted.ErrInvalidWeight) {
			t.Fatalf("NewWeightedFromSortedItems with weight %g: err = %v", bad, err)
		}
	}

	for _, splits := range [][]float64{nil, {2}} {
		w, err := NewWeightedFromSplits(splits, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, it := range heavy {
			if err := w.Insert(it.Key, min(it.Weight, weighted.MaxWeight)); err != nil {
				t.Fatal(err)
			}
		}
		if n, m := w.RangeStats(0, 5); n != 3 || m != 2*weighted.MaxWeight+1 {
			t.Fatalf("%d shards: RangeStats = (%d, %g), want (3, 2·MaxWeight+1)", len(splits)+1, n, m)
		}
		out, err := w.Sample(0, 5, 20, xrand.New(7))
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range out {
			if k == 3 {
				t.Fatalf("%d shards: drew the weight-1 key beside two of weight 2⁹⁶⁰: %v", len(splits)+1, out)
			}
		}
	}
}
