package core

import (
	"bytes"
	"math"
	"sort"
	"strings"
	"testing"

	"github.com/irsgo/irs/internal/xrand"
)

func TestStaticRoundTrip(t *testing.T) {
	s := NewStatic([]float64{3.5, 1.25, 2.75, 2.75})
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := LoadStatic[float64](&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 4 {
		t.Fatalf("Len = %d", got.Len())
	}
	for i := 0; i < 4; i++ {
		if got.At(i) != s.At(i) {
			t.Fatalf("At(%d) = %v, want %v", i, got.At(i), s.At(i))
		}
	}
}

func TestDynamicRoundTrip(t *testing.T) {
	d := NewDynamic[int]()
	r := xrand.New(1)
	for i := 0; i < 20000; i++ {
		d.Insert(r.Intn(5000))
	}
	for i := 0; i < 5000; i++ {
		d.Delete(r.Intn(5000))
	}
	var buf bytes.Buffer
	if err := d.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := LoadDynamic[int](&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != d.Len() {
		t.Fatalf("Len = %d, want %d", got.Len(), d.Len())
	}
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
	// Logical equality: same counts on probe ranges and same key order.
	for _, probe := range [][2]int{{0, 100}, {1000, 2000}, {0, 5000}} {
		if a, b := got.Count(probe[0], probe[1]), d.Count(probe[0], probe[1]); a != b {
			t.Fatalf("Count%v = %d, want %d", probe, a, b)
		}
	}
	ka := d.AppendRange(nil, 0, 5000)
	kb := got.AppendRange(nil, 0, 5000)
	if len(ka) != len(kb) {
		t.Fatalf("key count %d vs %d", len(ka), len(kb))
	}
	for i := range ka {
		if ka[i] != kb[i] {
			t.Fatalf("key %d: %d vs %d", i, ka[i], kb[i])
		}
	}
	// The loaded structure samples correctly.
	out, err := got.Sample(100, 4000, 50, r)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 50 {
		t.Fatalf("got %d samples", len(out))
	}
}

func TestStringKeyRoundTrip(t *testing.T) {
	d := NewDynamic[string]()
	for _, w := range []string{"pear", "apple", "fig", "fig"} {
		d.Insert(w)
	}
	var buf bytes.Buffer
	if err := d.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := LoadDynamic[string](&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Count("fig", "fig") != 2 {
		t.Fatal("duplicate string keys lost")
	}
}

func TestLoadErrors(t *testing.T) {
	if _, err := LoadStatic[int](strings.NewReader("")); err == nil {
		t.Fatal("empty stream accepted")
	}
	if _, err := LoadStatic[int](strings.NewReader("bogus data here")); err == nil {
		t.Fatal("bad magic accepted")
	}
	// Kind mismatch: a dynamic snapshot fed to LoadStatic.
	d := NewDynamic[int]()
	d.Insert(1)
	var buf bytes.Buffer
	if err := d.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadStatic[int](&buf); err == nil {
		t.Fatal("kind mismatch accepted")
	}
	// Type mismatch inside gob: ints written, strings requested.
	s := NewStatic([]int{1, 2})
	buf.Reset()
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadStatic[string](&buf); err == nil {
		t.Fatal("gob type mismatch accepted")
	}
}

func TestRankSelectQuantile(t *testing.T) {
	d := NewDynamic[int]()
	evens := make([]int, 1000)
	for i := range evens {
		evens[i] = i * 2 // evens 0..1998
		d.Insert(evens[i])
	}
	if got := d.RankLower(100); got != 50 {
		t.Fatalf("RankLower(100) = %d", got)
	}
	if got := d.RankUpper(100); got != 51 {
		t.Fatalf("RankUpper(100) = %d", got)
	}
	if got := d.RankLower(101); got != 51 {
		t.Fatalf("RankLower(101) = %d", got)
	}
	for _, i := range []int{0, 1, 499, 999} {
		if got := d.SelectRank(i); got != i*2 {
			t.Fatalf("SelectRank(%d) = %d, want %d", i, got, i*2)
		}
	}
	type quantiler interface{ Quantile(float64) (int, bool) }
	for name, s := range map[string]quantiler{"Dynamic": d, "Static": NewStatic(evens)} {
		for _, tc := range []struct {
			q    float64
			want int
			ok   bool
		}{
			{0.5, 998, true},
			{0, 0, true},
			{1, 1998, true},
			{2, 1998, true}, // clamped
			{math.Inf(1), 1998, true},
			{-1, 0, true},
			{math.Inf(-1), 0, true},
			{math.NaN(), 0, false}, // no rank to clamp to
		} {
			if q, ok := s.Quantile(tc.q); q != tc.want || ok != tc.ok {
				t.Errorf("%s.Quantile(%v) = %d, %v; want %d, %v", name, tc.q, q, ok, tc.want, tc.ok)
			}
		}
	}
	for name, empty := range map[string]quantiler{"Dynamic": NewDynamic[int](), "Static": NewStatic[int](nil)} {
		if _, ok := empty.Quantile(0.5); ok {
			t.Errorf("%s.Quantile on empty returned ok", name)
		}
	}

	s := NewStatic([]int{10, 20, 20, 30})
	if got := s.RankLower(20); got != 1 {
		t.Fatalf("static RankLower = %d", got)
	}
	if got := s.RankUpper(20); got != 3 {
		t.Fatalf("static RankUpper = %d", got)
	}
	if q, ok := s.Quantile(0.5); !ok || q != 20 {
		t.Fatalf("static Quantile = %d, %v", q, ok)
	}
}

func TestSelectRankPanics(t *testing.T) {
	d := NewDynamic[int]()
	d.Insert(1)
	for _, i := range []int{-1, 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("SelectRank(%d) did not panic", i)
				}
			}()
			d.SelectRank(i)
		}()
	}
}

// TestSelectRankAgainstModel cross-checks SelectRank under churn.
func TestSelectRankAgainstModel(t *testing.T) {
	r := xrand.New(2)
	d := NewDynamic[int]()
	var keys []int
	for i := 0; i < 5000; i++ {
		k := r.Intn(10000)
		d.Insert(k)
		keys = append(keys, k)
	}
	for i := 0; i < 2000; i++ {
		k := keys[len(keys)-1]
		keys = keys[:len(keys)-1]
		if !d.Delete(k) {
			t.Fatalf("Delete(%d) failed", k)
		}
	}
	sorted := append([]int(nil), keys...)
	sort.Ints(sorted)
	for trial := 0; trial < 500; trial++ {
		i := r.Intn(len(sorted))
		if got := d.SelectRank(i); got != sorted[i] {
			t.Fatalf("SelectRank(%d) = %d, want %d", i, got, sorted[i])
		}
	}
}
