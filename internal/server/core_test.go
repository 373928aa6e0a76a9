package server

import (
	"errors"
	"math"
	"sync"
	"testing"

	"github.com/irsgo/irs/internal/core"
	"github.com/irsgo/irs/internal/shard"
)

// newTestCore builds a core over real structures: an unweighted dataset
// "u" holding keys 0..999 and a weighted dataset "w" holding keys 0..99
// with weight k+1, plus keys 5000..5009 with weight 0 (a zero-mass range).
func newTestCore(t *testing.T, cfg Config) *Core[float64] {
	t.Helper()
	core := NewCore[float64](cfg)

	keys := make([]float64, 1000)
	for i := range keys {
		keys[i] = float64(i)
	}
	u, err := shard.NewFromSortedSeeded(keys, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := core.Add("u", NewUnweightedDataset(u)); err != nil {
		t.Fatal(err)
	}

	w := shard.NewWeighted[float64](4, 7)
	for i := 0; i < 100; i++ {
		if err := w.Insert(float64(i), float64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		if err := w.Insert(5000+float64(i), 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := core.Add("w", NewWeightedDataset(w)); err != nil {
		t.Fatal(err)
	}
	return core
}

// TestCoreValidationAndErrorPaths covers every typed error the serving
// core can produce, before and after admission.
func TestCoreValidationAndErrorPaths(t *testing.T) {
	core := newTestCore(t, Config{})
	defer core.Close()

	cases := []struct {
		name string
		got  func() error
		want error
	}{
		{"t=0", func() error { _, err := core.Sample("u", 0, 10, 0); return err }, ErrInvalidCount},
		{"t<0", func() error { _, err := core.Sample("u", 0, 10, -3); return err }, ErrInvalidCount},
		{"inverted range", func() error { _, err := core.Sample("u", 10, 0, 1); return err }, ErrInvalidRange},
		{"unknown dataset", func() error { _, err := core.Sample("nope", 0, 10, 1); return err }, ErrUnknownDataset},
		{"ambiguous dataset", func() error { _, err := core.Sample("", 0, 10, 1); return err }, ErrAmbiguousDataset},
		{"empty range", func() error { _, err := core.Sample("u", 2000, 3000, 1); return err }, ErrEmptyRange},
		{"zero-mass range", func() error { _, err := core.Sample("w", 5000, 5009, 1); return err }, ErrEmptyRange},
		{"invalid weight", func() error {
			_, err := core.Insert("w", []Item[float64]{{Key: 1, Weight: -2}})
			return err
		}, ErrInvalidWeight},
		{"duplicate dataset", func() error { return core.Add("u", nil) }, ErrDuplicateDataset},
		{"empty dataset name", func() error { return core.Add("", nil) }, ErrUnknownDataset},
	}
	for _, tc := range cases {
		if err := tc.got(); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}

	// Resolve: explicit names pass through, the empty name is ambiguous
	// here (two datasets).
	if name, err := core.Resolve("w"); err != nil || name != "w" {
		t.Fatalf("Resolve(w) = %q, %v", name, err)
	}
	if _, err := core.Resolve(""); !errors.Is(err, ErrAmbiguousDataset) {
		t.Fatalf("Resolve(\"\") err = %v", err)
	}
	if got := core.Datasets(); len(got) != 2 || got[0] != "u" || got[1] != "w" {
		t.Fatalf("Datasets() = %v", got)
	}

	// Happy paths against the real structures.
	out, err := core.Sample("u", 100, 200, 25)
	if err != nil || len(out) != 25 {
		t.Fatalf("sample: %d, %v", len(out), err)
	}
	for _, k := range out {
		if k < 100 || k > 200 {
			t.Fatalf("sample %g out of range", k)
		}
	}
	if n, err := core.Insert("u", []Item[float64]{{Key: 1e6}, {Key: 1e6 + 1}}); err != nil || n != 2 {
		t.Fatalf("insert: %d, %v", n, err)
	}
	if n, err := core.Delete("u", []float64{1e6, 1e6 + 1, 1e6 + 2}); err != nil || n != 2 {
		t.Fatalf("delete: %d, %v", n, err)
	}
	if n, err := core.Insert("u", nil); err != nil || n != 0 {
		t.Fatalf("empty insert: %d, %v", n, err)
	}
	// Weighted sampling over the zero-weight keys plus real mass must
	// never return a zero-weight key.
	for i := 0; i < 50; i++ {
		out, err := core.Sample("w", 0, 6000, 10)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range out {
			if k >= 5000 {
				t.Fatalf("sampled zero-weight key %g", k)
			}
		}
	}
}

// TestCoreResolveSingleDataset: the empty name routes to the sole dataset.
func TestCoreResolveSingleDataset(t *testing.T) {
	core := NewCore[float64](Config{})
	defer core.Close()
	u := shard.NewSeeded[float64](2, 3)
	u.InsertBatch([]float64{1, 2, 3})
	if err := core.Add("only", NewUnweightedDataset(u)); err != nil {
		t.Fatal(err)
	}
	if name, err := core.Resolve(""); err != nil || name != "only" {
		t.Fatalf("Resolve = %q, %v", name, err)
	}
	if out, err := core.Sample("", 0, 10, 2); err != nil || len(out) != 2 {
		t.Fatalf("sample via default name: %v, %v", out, err)
	}
	// But a core with no datasets at all reports unknown.
	empty := NewCore[float64](Config{})
	defer empty.Close()
	if _, err := empty.Resolve(""); !errors.Is(err, ErrUnknownDataset) {
		t.Fatalf("err = %v", err)
	}
}

// TestCoreStatsConsistency: counters reconcile exactly with the requests a
// deterministic client issued.
func TestCoreStatsConsistency(t *testing.T) {
	core := newTestCore(t, Config{})
	defer core.Close()
	const reqs, tPer = 40, 5
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < reqs/4; i++ {
				if _, err := core.Sample("u", 0, 999, tPer); err != nil {
					t.Errorf("sample: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	var u DatasetStats
	for _, d := range core.Stats().Datasets {
		if d.Name == "u" {
			u = d
		}
	}
	if u.Kind != "unweighted" || u.Len != 1000 {
		t.Fatalf("stats: %+v", u)
	}
	if u.SampleRequests != reqs || u.SamplesReturned != reqs*tPer {
		t.Fatalf("request accounting: %+v", u)
	}
	if u.SampleBatches == 0 || u.SampleBatches > u.SampleRequests {
		t.Fatalf("batch accounting: %+v", u)
	}
	if u.MaxCoalesced < 1 {
		t.Fatalf("max coalesced: %+v", u)
	}
}

// TestNaNKeyErrorSentinels: a NaN key in an insert, delete or weight update
// is rejected with one error that is both ErrInvalidRange (the wire code
// every transport reports) and core.ErrNaNKey (irs.ErrNaNKey, the sentinel
// the library layers reject NaN with), and leaves the dataset unchanged.
func TestNaNKeyErrorSentinels(t *testing.T) {
	c := newTestCore(t, Config{})
	defer c.Close()
	nan := math.NaN()
	ops := map[string]func() error{
		"insert": func() error { _, err := c.Insert("u", []Item[float64]{{Key: 1}, {Key: nan}}); return err },
		"delete": func() error { _, err := c.Delete("u", []float64{1, nan}); return err },
		"update": func() error { _, err := c.Update("w", []Item[float64]{{Key: nan, Weight: 1}}); return err },
	}
	for name, op := range ops {
		err := op()
		if !errors.Is(err, ErrInvalidRange) || !errors.Is(err, core.ErrNaNKey) {
			t.Errorf("%s with a NaN key: err = %v, want ErrInvalidRange and core.ErrNaNKey", name, err)
		}
	}
	if n, _, _ := c.RangeStats("u", math.Inf(-1), math.Inf(1)); n != 1000 {
		t.Errorf("rejected NaN mutations changed the dataset: %d keys, want 1000", n)
	}
}
