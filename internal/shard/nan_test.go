package shard

import (
	"errors"
	"math"
	"testing"

	"github.com/irsgo/irs/internal/core"
	"github.com/irsgo/irs/internal/weighted"
)

// panicsWith reports whether f panics with err.
func panicsWith(f func(), err error) (ok bool) {
	defer func() {
		r := recover()
		e, isErr := r.(error)
		ok = isErr && errors.Is(e, err)
	}()
	f()
	return false
}

// TestNaNKeysRejected pins that no NaN key reaches a shard. A stored NaN
// breaks every search that passes it: InsertBatch([1, 2, NaN, 3]) used to
// leave Len 4 but Count(-Inf, +Inf) 3, and Validate did not notice.
func TestNaNKeysRejected(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	c := New[float64](2)
	c.InsertBatch([]float64{1, 2, 3})
	if !panicsWith(func() { c.InsertBatch([]float64{4, nan, 5}) }, core.ErrNaNKey) {
		t.Error("InsertBatch with a NaN key did not panic with ErrNaNKey")
	}
	if !panicsWith(func() { c.Insert(nan) }, core.ErrNaNKey) {
		t.Error("Insert(NaN) did not panic with ErrNaNKey")
	}
	if c.Len() != 3 || c.Count(-inf, inf) != 3 {
		t.Errorf("after rejected NaN inserts: Len %d, Count %d, want 3 and 3", c.Len(), c.Count(-inf, inf))
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}

	// A NaN in a delete batch matches nothing and must not misroute the
	// batch's other keys: slices.Sort puts NaNs first, where the segment
	// search took them for keys past the split.
	s, err := NewFromSplits([]float64{10})
	if err != nil {
		t.Fatal(err)
	}
	s.InsertBatch([]float64{1, 20})
	if got := s.DeleteBatch([]float64{nan, nan, 1, nan, nan, 20}); got != 2 || s.Len() != 0 {
		t.Errorf("DeleteBatch of 1, 20 and four NaNs removed %d, Len %d; want 2 and 0", got, s.Len())
	}

	w := NewWeighted[float64](2, 1)
	if err := w.Insert(nan, 1); err != core.ErrNaNKey {
		t.Errorf("weighted Insert(NaN): err = %v, want ErrNaNKey", err)
	}
	if err := w.InsertItem(weighted.Item[float64]{Key: nan, Weight: 1}); err != core.ErrNaNKey {
		t.Errorf("weighted InsertItem(NaN): err = %v, want ErrNaNKey", err)
	}
	items := []weighted.Item[float64]{{Key: 1, Weight: 1}, {Key: nan, Weight: 1}}
	if err := w.InsertBatch(items); err != core.ErrNaNKey {
		t.Errorf("weighted InsertBatch with a NaN key: err = %v, want ErrNaNKey", err)
	}
	if w.Len() != 0 {
		t.Errorf("weighted Len after rejected inserts = %d, want 0", w.Len())
	}
	if _, err := NewWeightedFromItems(items, 2, 1); err != core.ErrNaNKey {
		t.Errorf("NewWeightedFromItems with a NaN key: err = %v, want ErrNaNKey", err)
	}

	for _, keys := range [][]float64{{nan}, {1, nan}, {nan, 1}, {1, nan, 2}} {
		if _, err := NewFromSorted(keys, 2); err != core.ErrUnsorted {
			t.Errorf("NewFromSorted(%v): err = %v, want ErrUnsorted", keys, err)
		}
		if _, err := NewFromSplits(keys); err != core.ErrUnsorted {
			t.Errorf("NewFromSplits(%v): err = %v, want ErrUnsorted", keys, err)
		}
		if _, err := NewWeightedFromSplits(keys, 1); err != weighted.ErrUnsortedItems {
			t.Errorf("NewWeightedFromSplits(%v): err = %v, want ErrUnsortedItems", keys, err)
		}
		its := make([]weighted.Item[float64], len(keys))
		for i, k := range keys {
			its[i] = weighted.Item[float64]{Key: k, Weight: 1}
		}
		if _, err := NewWeightedFromSortedItems(its, 2, 1); err != weighted.ErrUnsortedItems {
			t.Errorf("NewWeightedFromSortedItems(%v): err = %v, want ErrUnsortedItems", keys, err)
		}
	}
}
