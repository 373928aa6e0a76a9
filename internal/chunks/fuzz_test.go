package chunks

import (
	"slices"
	"sort"
	"testing"

	"github.com/irsgo/irs/internal/xrand"
)

// FuzzOps feeds arbitrary byte strings as op sequences (insert / delete /
// count / sample / sorted-batch insert) and checks the structure against a
// sorted-slice model plus full invariant validation. Run with `go test -fuzz=FuzzOps` for
// continuous fuzzing; the seed corpus runs in normal test mode.
func FuzzOps(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{255, 254, 253, 10, 10, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0})
	f.Add([]byte("interleaved inserts and deletes of the same keys"))
	f.Fuzz(func(t *testing.T, data []byte) {
		l := New[int]()
		rng := xrand.New(uint64(len(data)))
		var model []int
		insert := func(k int) {
			j := sort.SearchInts(model, k)
			model = append(model, 0)
			copy(model[j+1:], model[j:])
			model[j] = k
		}
		for i, b := range data {
			k := int(b) % 64
			switch i % 5 {
			case 0, 1: // insert twice as often as anything else
				l.Insert(k)
				insert(k)
			case 4: // a sorted batch of the next b%16 bytes' keys
				batch := make([]int, 0, 16)
				for _, x := range data[i:min(i+int(b%16), len(data))] {
					batch = append(batch, int(x)%64)
				}
				slices.Sort(batch)
				l.InsertSorted(batch)
				for _, x := range batch {
					insert(x)
				}
			case 2:
				got := l.Delete(k)
				j := sort.SearchInts(model, k)
				want := j < len(model) && model[j] == k
				if want {
					model = append(model[:j], model[j+1:]...)
				}
				if got != want {
					t.Fatalf("op %d: Delete(%d) = %v, want %v", i, k, got, want)
				}
			case 3:
				lo, hi := k-8, k+8
				want := sort.SearchInts(model, hi+1) - sort.SearchInts(model, lo)
				if got := l.Count(lo, hi); got != want {
					t.Fatalf("op %d: Count(%d,%d) = %d, want %d", i, lo, hi, got, want)
				}
				out, ok := l.SampleAppend(nil, lo, hi, 3, rng)
				if ok != (want > 0) {
					t.Fatalf("op %d: sample ok=%v with count %d", i, ok, want)
				}
				for _, v := range out {
					if v < lo || v > hi {
						t.Fatalf("op %d: sample %d outside [%d,%d]", i, v, lo, hi)
					}
					if j := sort.SearchInts(model, v); j >= len(model) || model[j] != v {
						t.Fatalf("op %d: sample %d not in model", i, v)
					}
				}
			}
		}
		if l.Len() != len(model) {
			t.Fatalf("Len = %d, want %d", l.Len(), len(model))
		}
		if err := l.Validate(); err != nil {
			t.Fatal(err)
		}
	})
}
