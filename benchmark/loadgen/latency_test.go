package loadgen

import (
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	hundred := make([]time.Duration, 100) // 1..100
	for i := range hundred {
		hundred[i] = time.Duration(i + 1)
	}
	for _, tc := range []struct {
		in   []time.Duration
		p    float64
		want time.Duration
	}{
		{hundred, 50, 50},
		{hundred, 90, 90},
		{hundred, 99, 99},
		{hundred, 100, 100},
		{hundred, 0.5, 1},
		{[]time.Duration{10, 20, 30, 40, 50}, 50, 30},
		{[]time.Duration{10, 20, 30, 40, 50}, 90, 50},
		{[]time.Duration{10, 20, 30, 40}, 50, 20},
		{[]time.Duration{7}, 50, 7},
		{[]time.Duration{7}, 90, 7},
	} {
		if got := Percentile(tc.in, tc.p); got != tc.want {
			t.Errorf("Percentile(%d values, %v) = %d, want %d", len(tc.in), tc.p, got, tc.want)
		}
	}
}

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{50, 0, false},   // p90 leaves 5 beyond
		{100, 90, true},  // p90 leaves 10, p99 leaves 1
		{999, 90, true},  // p99 leaves 9
		{1000, 99, true}, // p99 leaves 10
		{9999, 99, true}, // p99.9 leaves 9
		{10000, 99.9, true},
		{20000, 99.9, true},
		{100000, 99.99, true},
	} {
		got, ok := TailPercentile(tc.n)
		if got != tc.want || ok != tc.ok {
			t.Errorf("TailPercentile(%d) = %v, %v; want %v, %v", tc.n, got, ok, tc.want, tc.ok)
		}
	}
}
