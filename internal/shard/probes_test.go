package shard

import (
	"math"
	"slices"
	"testing"

	"github.com/irsgo/irs/internal/xrand"
)

// The paper promises O(1) expected rejection probes per sample. These pins
// read probes per accepted sample at the serving benchmark's sample_heavy
// shape — 2^20 keys over 4 shards, wide ranges — so a layout change that
// quietly hurts acceptance fails here instead of showing up as lost
// throughput.

// mixtureKeys returns n sorted keys in [0, 1e6): half uniform, half from a
// mixture of four Gaussians placed by the seed, so equal-width ranges are
// unevenly dense.
func mixtureKeys(seed uint64, n int) []float64 {
	rng := xrand.New(seed)
	var mu, sigma [4]float64
	for i := range mu {
		mu[i] = 1e6 * (0.1 + 0.8*rng.Float64())
		sigma[i] = 1e6 * (0.005 + 0.03*rng.Float64())
	}
	keys := make([]float64, n)
	for i := range keys {
		if i%2 == 0 {
			keys[i] = rng.Float64() * 1e6
			continue
		}
		c := rng.Intn(4)
		for {
			if k := mu[c] + sigma[c]*rng.Norm64(); k >= 0 && k < 1e6 {
				keys[i] = k
				break
			}
		}
	}
	slices.Sort(keys)
	return keys
}

// probesPerSample draws 1024 samples per query over 10-100% ranges of
// keys, split over c's shards in proportion to their range counts, and
// returns each sample's probe count.
func probesPerSample(t *testing.T, c *Concurrent[float64], keys []float64) []int {
	t.Helper()
	if got := c.Shards(); got != 4 {
		t.Fatalf("%d shards, want 4", got)
	}
	rng := xrand.New(91)
	var probes []int
	for q := range 64 {
		width := len(keys) / 10 * (1 + q%10)
		start := rng.Intn(len(keys) - width + 1)
		lo, hi := keys[start], keys[start+width-1]
		for _, sh := range c.shards {
			n := sh.b.dyn.Count(lo, hi)
			if n == 0 {
				continue
			}
			var err error
			_, probes, err = sh.b.dyn.SampleProbesAppend(nil, lo, hi, max(1, 1024*n/width), rng, probes)
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	return probes
}

// checkProbeTail gates probes per accepted sample: a mean of at most 2.0,
// and a geometric tail — no more than 0.6^k of the samples need more than
// k probes, plus a small-count allowance.
func checkProbeTail(t *testing.T, probes []int) {
	t.Helper()
	total := 0
	over := make([]int, 33) // over[k]: samples that took more than k probes
	for _, p := range probes {
		total += p
		for k := 1; k < min(p, len(over)); k++ {
			over[k]++
		}
	}
	mean := float64(total) / float64(len(probes))
	t.Logf("%d samples, %.3f probes per accepted sample", len(probes), mean)
	if mean > 2.0 {
		t.Fatalf("%.3f probes per accepted sample, want <= 2.0", mean)
	}
	for k := 1; k < len(over); k++ {
		if bound := float64(len(probes))*math.Pow(0.6, float64(k)) + 10; float64(over[k]) > bound {
			t.Fatalf("%d of %d samples took more than %d probes, geometric bound %.0f", over[k], len(probes), k, bound)
		}
	}
}

// TestProbesPerSampleGrownByBatches loads the structure the way the serving
// benchmark does: shuffled 32768-key InsertBatch calls.
func TestProbesPerSampleGrownByBatches(t *testing.T) {
	keys := mixtureKeys(90, 1<<20)
	shuffled := append([]float64(nil), keys...)
	xrand.New(92).Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	c := New[float64](4)
	for lo := 0; lo < len(shuffled); lo += 32768 {
		c.InsertBatch(shuffled[lo:min(lo+32768, len(shuffled))])
	}
	checkProbeTail(t, probesPerSample(t, c, keys))
}

// TestProbesPerSampleFromSorted is the same pin over a NewFromSorted build.
func TestProbesPerSampleFromSorted(t *testing.T) {
	keys := mixtureKeys(90, 1<<20)
	c, err := NewFromSorted(keys, 4)
	if err != nil {
		t.Fatal(err)
	}
	checkProbeTail(t, probesPerSample(t, c, keys))
}
