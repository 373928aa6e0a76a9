package loadgen

import (
	"math"
	"sort"
	"time"
)

// Percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// sorted, which must be ascending and non-empty: the smallest value with
// at least p percent of the values at or below it.
func Percentile(sorted []time.Duration, p float64) time.Duration {
	// The epsilon keeps a product that is a whole number in exact
	// arithmetic (99.9% of 10000) from rounding up to the next rank.
	rank := int(math.Ceil(p*float64(len(sorted))/100 - 1e-9))
	return sorted[min(max(rank, 1), len(sorted))-1]
}

// TailPercentile returns the highest percentile of the ladder 90, 99,
// 99.9, 99.99 that still has at least ten of n samples beyond it — the
// highest one the sample supports. ok is false when even p90 has fewer.
func TailPercentile(n int) (p float64, ok bool) {
	// Nearest rank leaves n/beyond samples above the pick, in whole numbers.
	for _, c := range []struct {
		p      float64
		beyond int
	}{{99.99, 10000}, {99.9, 1000}, {99, 100}, {90, 10}} {
		if n/c.beyond >= 10 {
			return c.p, true
		}
	}
	return 0, false
}

// SortDurations sorts ds ascending in place and returns it.
func SortDurations(ds []time.Duration) []time.Duration {
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds
}

// Micros converts a duration to fractional microseconds.
func Micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
