package chunks

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"github.com/irsgo/irs/internal/xrand"
)

// layoutDiff returns how two lists' layouts differ, or "" if they do not:
// parameters, geometry, footprint, and the bit patterns of every chunk's
// keys (so a −0 and a +0 that trade places differ too).
func layoutDiff(a, b *List[float64]) string {
	if a.n != b.n || a.s != b.s || a.nAtRebuild != b.nAtRebuild {
		return fmt.Sprintf("n/s/nAtRebuild %d/%d/%d vs %d/%d/%d", a.n, a.s, a.nAtRebuild, b.n, b.s, b.nAtRebuild)
	}
	if a.Footprint() != b.Footprint() {
		return fmt.Sprintf("footprint %d vs %d", a.Footprint(), b.Footprint())
	}
	if len(a.groups) != len(b.groups) {
		return fmt.Sprintf("%d vs %d groups", len(a.groups), len(b.groups))
	}
	for gi := range a.groups {
		ga, gb := &a.groups[gi], &b.groups[gi]
		if ga.count != gb.count || len(ga.chunks) != len(gb.chunks) {
			return fmt.Sprintf("group %d: %d keys in %d chunks vs %d in %d", gi, ga.count, len(ga.chunks), gb.count, len(gb.chunks))
		}
		for ci := range ga.chunks {
			if !slices.EqualFunc(ga.chunks[ci].keys, gb.chunks[ci].keys, func(x, y float64) bool {
				return math.Float64bits(x) == math.Float64bits(y)
			}) {
				return fmt.Sprintf("group %d chunk %d: keys differ", gi, ci)
			}
		}
	}
	return ""
}

// TestInsertSortedMatchesInsert pins that a finger-searched batch builds
// exactly the list per-key Insert of the same sorted keys builds. Churn of
// batches of 0–2000 keys — duplicate-heavy, with −0, +0 and ±Inf — and
// deletes in between grows and shrinks the list through rebuilds, at
// pinned s = 4…10 and at the default s.
func TestInsertSortedMatchesInsert(t *testing.T) {
	specials := []float64{math.Copysign(0, -1), 0, math.Inf(-1), math.Inf(1)}
	for _, s := range []int{0, 4, 5, 6, 7, 8, 9, 10} {
		t.Run(fmt.Sprintf("s=%d", s), func(t *testing.T) {
			a, b := New[float64](), New[float64]()
			if s > 0 {
				a, _ = NewFromSortedWithS[float64](nil, s)
				b, _ = NewFromSortedWithS[float64](nil, s)
			}
			rng := xrand.New(uint64(70 + s))
			rebuilds, lastN := 0, a.nAtRebuild
			for round := range 40 {
				batch := make([]float64, rng.Intn(2001))
				for i := range batch {
					switch r := rng.Intn(16); {
					case r == 0:
						batch[i] = specials[rng.Intn(len(specials))]
					case r < 8:
						batch[i] = float64(rng.Intn(50)) // duplicates
					default:
						batch[i] = rng.Float64Range(-1000, 1000)
					}
				}
				slices.Sort(batch)
				a.InsertSorted(batch)
				for _, k := range batch {
					b.Insert(k)
				}
				if d := layoutDiff(a, b); d != "" {
					t.Fatalf("round %d, after a %d-key batch: %s", round, len(batch), d)
				}
				if err := a.Validate(); err != nil {
					t.Fatalf("round %d: %v", round, err)
				}
				if a.nAtRebuild != lastN {
					rebuilds, lastN = rebuilds+1, a.nAtRebuild
				}
				// Deletes: mostly a few, every fifth round most of the list,
				// so shrinking rebuilds happen too; some keys are absent.
				stored := a.AppendKeys(nil)
				nd := rng.Intn(len(stored)/8 + 1)
				if round%5 == 4 {
					nd = len(stored) * 3 / 4
				}
				for range nd {
					k := stored[rng.Intn(len(stored))]
					if rng.Intn(8) == 0 {
						k += 0.5
					}
					if a.Delete(k) != b.Delete(k) {
						t.Fatalf("round %d: Delete(%v) disagrees", round, k)
					}
				}
				if d := layoutDiff(a, b); d != "" {
					t.Fatalf("round %d, after %d deletes: %s", round, nd, d)
				}
				if a.nAtRebuild != lastN {
					rebuilds, lastN = rebuilds+1, a.nAtRebuild
				}
			}
			if err := a.Validate(); err != nil {
				t.Fatal(err)
			}
			if rebuilds < 4 {
				t.Fatalf("only %d rebuilds crossed; the churn should cross more", rebuilds)
			}
		})
	}
}

// TestInsertSortedOutOfOrder pins that a batch out of order is still
// inserted correctly, each out-of-order key searched from the root.
func TestInsertSortedOutOfOrder(t *testing.T) {
	rng := xrand.New(5)
	l := New[float64]()
	var model []float64
	for range 50 {
		batch := make([]float64, rng.Intn(300))
		for i := range batch {
			batch[i] = float64(rng.Intn(1000))
		}
		l.InsertSorted(batch)
		model = append(model, batch...)
	}
	slices.Sort(model)
	if got := l.AppendKeys(nil); !slices.Equal(got, model) {
		t.Fatal("keys differ from the model")
	}
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestNaNFailsOrderChecks pins that NaN, which has no place in the key
// order, fails every order check: IsSorted, the FromSorted constructors
// and Validate.
func TestNaNFailsOrderChecks(t *testing.T) {
	nan := math.NaN()
	for _, keys := range [][]float64{{nan}, {nan, 1}, {1, nan}, {1, nan, 2}} {
		if IsSorted(keys) {
			t.Errorf("IsSorted(%v) = true", keys)
		}
		if _, err := NewFromSorted(keys); err != ErrUnsorted {
			t.Errorf("NewFromSorted(%v): err = %v, want ErrUnsorted", keys, err)
		}
		if _, err := NewFromSortedWithS(keys, 8); err != ErrUnsorted {
			t.Errorf("NewFromSortedWithS(%v): err = %v, want ErrUnsorted", keys, err)
		}
	}
	for _, keys := range [][]float64{nil, {1}, {1, 1}, {math.Inf(-1), math.Copysign(0, -1), 0, math.Inf(1)}} {
		if !IsSorted(keys) {
			t.Errorf("IsSorted(%v) = false", keys)
		}
	}
	for _, pre := range [][]float64{nil, {1, 2, 3}} {
		l, err := NewFromSorted(pre)
		if err != nil {
			t.Fatal(err)
		}
		l.Insert(nan) // the list does not screen keys; its callers do
		if err := l.Validate(); err == nil {
			t.Errorf("Validate passed a list holding %v and NaN", pre)
		}
	}
}
