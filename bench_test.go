// Repository-level benchmarks: one testing.B benchmark per experiment in
// EXPERIMENTS.md (E1–E13). Each benchmark times the core operation of its
// experiment; the full parameter sweeps (and rendered tables) live in
// cmd/irsbench, which shares the internal/bench harness.
//
// Run: go test -bench=. -benchmem
package irs_test

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	irs "github.com/irsgo/irs"
	"github.com/irsgo/irs/internal/bench"
	"github.com/irsgo/irs/internal/core"
	"github.com/irsgo/irs/internal/em"
	"github.com/irsgo/irs/internal/weighted"
	"github.com/irsgo/irs/internal/workload"
	"github.com/irsgo/irs/internal/xrand"
)

func staticFixture(b *testing.B, n int, sel float64) (*irs.Static[float64], []workload.Range, *irs.RNG) {
	b.Helper()
	rng := xrand.New(uint64(n))
	keys := workload.Keys(workload.Uniform, n, rng)
	s, err := irs.NewStaticFromSorted(keys)
	if err != nil {
		b.Fatal(err)
	}
	return s, workload.RangesWithSelectivity(keys, sel, 64, rng), rng
}

func dynamicFixture(b *testing.B, n int, sel float64) (*irs.Dynamic[float64], []workload.Range, *irs.RNG, []float64) {
	b.Helper()
	rng := xrand.New(uint64(n) + 1)
	keys := workload.Keys(workload.Uniform, n, rng)
	d, err := irs.NewDynamicFromSorted(keys)
	if err != nil {
		b.Fatal(err)
	}
	return d, workload.RangesWithSelectivity(keys, sel, 64, rng), rng, keys
}

// BenchmarkE1StaticVsN — static query, t=64, across n (per-sample cost must
// stay flat).
func BenchmarkE1StaticVsN(b *testing.B) {
	for _, n := range []int{10_000, 100_000, 1_000_000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			s, ranges, rng := staticFixture(b, n, 0.01)
			buf := make([]float64, 0, 64)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r := ranges[i%len(ranges)]
				buf = buf[:0]
				buf, _ = s.SampleAppend(buf, r.Lo, r.Hi, 64, rng)
			}
		})
	}
}

// BenchmarkE2StaticVsT — static query across t at fixed n.
func BenchmarkE2StaticVsT(b *testing.B) {
	s, ranges, rng := staticFixture(b, 1_000_000, 0.01)
	for _, t := range []int{1, 16, 256, 4096} {
		b.Run(fmt.Sprintf("t=%d", t), func(b *testing.B) {
			buf := make([]float64, 0, t)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r := ranges[i%len(ranges)]
				buf = buf[:0]
				buf, _ = s.SampleAppend(buf, r.Lo, r.Hi, t, rng)
			}
		})
	}
}

// BenchmarkE3StaticWOR — without-replacement sampling via Floyd.
func BenchmarkE3StaticWOR(b *testing.B) {
	s, ranges, rng := staticFixture(b, 1_000_000, 0.1)
	for _, t := range []int{16, 256, 4096} {
		b.Run(fmt.Sprintf("t=%d", t), func(b *testing.B) {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r := ranges[i%len(ranges)]
				if _, err := s.SampleWithoutReplacement(r.Lo, r.Hi, t, rng); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE4DynamicVsN / VsT — dynamic query scaling.
func BenchmarkE4DynamicVsN(b *testing.B) {
	for _, n := range []int{10_000, 100_000, 1_000_000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			d, ranges, rng, _ := dynamicFixture(b, n, 0.01)
			buf := make([]float64, 0, 64)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r := ranges[i%len(ranges)]
				buf = buf[:0]
				buf, _ = d.SampleAppend(buf, r.Lo, r.Hi, 64, rng)
			}
		})
	}
}

func BenchmarkE4DynamicVsT(b *testing.B) {
	d, ranges, rng, _ := dynamicFixture(b, 1_000_000, 0.01)
	for _, t := range []int{1, 16, 256, 4096} {
		b.Run(fmt.Sprintf("t=%d", t), func(b *testing.B) {
			buf := make([]float64, 0, t)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r := ranges[i%len(ranges)]
				buf = buf[:0]
				buf, _ = d.SampleAppend(buf, r.Lo, r.Hi, t, rng)
			}
		})
	}
}

// BenchmarkE5Update — steady-state insert/delete pairs.
func BenchmarkE5Update(b *testing.B) {
	for _, n := range []int{10_000, 100_000, 1_000_000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			d, _, _, keys := dynamicFixture(b, n, 0.01)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := keys[i%len(keys)]
				if i%2 == 0 {
					d.Insert(k + 0.5)
				} else {
					d.Delete(k + 0.5)
				}
			}
		})
	}
}

// BenchmarkE6Baselines — the three query strategies at a selectivity where
// IRS wins decisively (1%) and one where report+sample is competitive
// (0.001%).
func BenchmarkE6Baselines(b *testing.B) {
	n := 1_000_000
	rng := xrand.New(6)
	keys := workload.Keys(workload.Uniform, n, rng)
	d, err := irs.NewDynamicFromSorted(keys)
	if err != nil {
		b.Fatal(err)
	}
	tr := irs.NewTreapSampler[float64](7)
	for _, k := range keys {
		tr.Insert(k)
	}
	rep, err := irs.NewReportSamplerFromSorted(keys)
	if err != nil {
		b.Fatal(err)
	}
	for _, sel := range []float64{0.00001, 0.01} {
		ranges := workload.RangesWithSelectivity(keys, sel, 64, rng)
		for name, s := range map[string]core.Sampler[float64]{
			"chunked": d, "treap": tr, "report": rep,
		} {
			b.Run(fmt.Sprintf("sel=%g/%s", sel, name), func(b *testing.B) {
				buf := make([]float64, 0, 64)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					r := ranges[i%len(ranges)]
					buf = buf[:0]
					buf, _ = s.SampleAppend(buf, r.Lo, r.Hi, 64, rng)
				}
			})
		}
	}
}

// BenchmarkE7Space — build cost and resident footprint (bytes/op reported
// via the benchmark's allocation tracking; Footprint() is reported by the
// harness table).
func BenchmarkE7Space(b *testing.B) {
	rng := xrand.New(7)
	keys := workload.Keys(workload.Uniform, 100_000, rng)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := irs.NewDynamicFromSorted(keys)
		if err != nil {
			b.Fatal(err)
		}
		if d.Len() == 0 {
			b.Fatal("empty")
		}
	}
}

// BenchmarkE8Uniformity — cost of drawing the sample stream the chi-square
// test consumes (the test itself runs in the harness and test suite).
func BenchmarkE8Uniformity(b *testing.B) {
	d, ranges, rng, _ := dynamicFixture(b, 200_000, 0.5)
	buf := make([]float64, 0, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := ranges[i%len(ranges)]
		buf = buf[:0]
		buf, _ = d.SampleAppend(buf, r.Lo, r.Hi, 1024, rng)
	}
}

// BenchmarkE9Independence — repeated identical queries (fresh randomness
// each time).
func BenchmarkE9Independence(b *testing.B) {
	d, ranges, rng, _ := dynamicFixture(b, 200_000, 0.5)
	r := ranges[0]
	buf := make([]float64, 0, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = buf[:0]
		buf, _ = d.SampleAppend(buf, r.Lo, r.Hi, 100, rng)
	}
}

// BenchmarkE10Rejection — sampling with probe accounting enabled.
func BenchmarkE10Rejection(b *testing.B) {
	d, ranges, rng, _ := dynamicFixture(b, 1_000_000, 0.01)
	buf := make([]float64, 0, 64)
	probes := make([]int, 0, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := ranges[i%len(ranges)]
		buf, probes = buf[:0], probes[:0]
		buf, probes, _ = d.SampleProbesAppend(buf, r.Lo, r.Hi, 64, rng, probes)
	}
}

// BenchmarkE11Weighted — the four weighted samplers at t=64.
func BenchmarkE11Weighted(b *testing.B) {
	n := 1 << 17
	rng := xrand.New(11)
	keys := workload.Keys(workload.Uniform, n, rng)
	zw := workload.ZipfWeights(n, 1.1, rng)
	items := make([]weighted.Item[float64], n)
	for i := range items {
		items[i] = weighted.Item[float64]{Key: keys[i], Weight: zw[i]}
	}
	seg, err := weighted.NewSegmentAlias(items)
	if err != nil {
		b.Fatal(err)
	}
	bkt, err := weighted.NewBucket(items)
	if err != nil {
		b.Fatal(err)
	}
	fen, err := weighted.NewFenwick(items)
	if err != nil {
		b.Fatal(err)
	}
	nv, err := weighted.NewNaiveCDF(items)
	if err != nil {
		b.Fatal(err)
	}
	ranges := workload.RangesWithSelectivity(keys, 0.1, 64, rng)
	for name, s := range map[string]weighted.Sampler[float64]{
		"segalias": seg, "bucket": bkt, "fenwick": fen, "naive": nv,
	} {
		b.Run(name, func(b *testing.B) {
			buf := make([]float64, 0, 64)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r := ranges[i%len(ranges)]
				buf = buf[:0]
				buf, _ = s.SampleAppend(buf, r.Lo, r.Hi, 64, rng)
			}
		})
	}
}

// BenchmarkE12ExternalMemory — EM sampling vs scanning (wall time here;
// I/O counts in the harness table).
func BenchmarkE12ExternalMemory(b *testing.B) {
	dev, err := em.NewDevice(4096)
	if err != nil {
		b.Fatal(err)
	}
	pool, err := em.NewPool(dev, 256)
	if err != nil {
		b.Fatal(err)
	}
	rng := xrand.New(12)
	keys := workload.IntKeys(workload.Uniform, 400_000, rng)
	tree, err := em.BulkLoad(pool, keys, 0.8)
	if err != nil {
		b.Fatal(err)
	}
	lo, hi := keys[40_000], keys[360_000]
	b.Run("sample", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := tree.SampleRange(lo, hi, 16, rng); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("scan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := tree.ScanSample(lo, hi, 16, rng); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE13Mixed — 50/50 query/update interleaving.
func BenchmarkE13Mixed(b *testing.B) {
	d, ranges, rng, keys := dynamicFixture(b, 1_000_000, 0.01)
	buf := make([]float64, 0, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%2 == 0 {
			r := ranges[i%len(ranges)]
			buf = buf[:0]
			buf, _ = d.SampleAppend(buf, r.Lo, r.Hi, 32, rng)
		} else {
			k := keys[i%len(keys)]
			if i%4 == 1 {
				d.Insert(k + 0.25)
			} else {
				d.Delete(k + 0.25)
			}
		}
	}
}

// BenchmarkE16ConcurrentOverhead — single-thread cost of the sharded
// concurrent layer relative to the plain Dynamic it wraps (routing, lock,
// per-shard counts, multinomial split).
func BenchmarkE16ConcurrentOverhead(b *testing.B) {
	rng := xrand.New(16)
	keys := workload.Keys(workload.Uniform, 1_000_000, rng)
	ranges := workload.RangesWithSelectivity(keys, 0.01, 64, rng)
	d, err := irs.NewDynamicFromSorted(keys)
	if err != nil {
		b.Fatal(err)
	}
	samplers := map[string]core.Sampler[float64]{"dynamic": d}
	for _, p := range []int{1, 8} {
		c, err := irs.NewConcurrentFromSorted(keys, p)
		if err != nil {
			b.Fatal(err)
		}
		samplers[fmt.Sprintf("concurrent%d", p)] = c
	}
	for name, s := range samplers {
		b.Run(name, func(b *testing.B) {
			buf := make([]float64, 0, 64)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r := ranges[i%len(ranges)]
				buf = buf[:0]
				buf, _ = s.SampleAppend(buf, r.Lo, r.Hi, 64, rng)
			}
		})
	}
}

// BenchmarkE16SampleManyScaling — aggregate SampleMany throughput with
// GOMAXPROCS parallel clients and a live background writer, single-shard vs
// sharded. Each op is one SampleMany batch of 16 queries x 64 samples; the
// sharded configuration must scale >= 2x over shards=1 on multi-core
// hardware (run with -cpu to sweep client parallelism).
func BenchmarkE16SampleManyScaling(b *testing.B) {
	rng := xrand.New(17)
	keys := workload.Keys(workload.Uniform, 1_000_000, rng)
	ranges := workload.RangesWithSelectivity(keys, 0.01, 256, rng)
	shardCounts := []int{1, runtime.GOMAXPROCS(0)}
	if shardCounts[1] < 2 {
		shardCounts[1] = 2
	}
	for _, p := range shardCounts {
		b.Run(fmt.Sprintf("shards=%d", p), func(b *testing.B) {
			c, err := irs.NewConcurrentFromSorted(keys, p)
			if err != nil {
				b.Fatal(err)
			}
			var stop atomic.Bool
			var wg sync.WaitGroup
			wg.Add(1)
			go func() { // continuous write churn in a disjoint key block
				defer wg.Done()
				wrng := xrand.New(18)
				batch := make([]float64, 256)
				for !stop.Load() {
					for i := range batch {
						batch[i] = wrng.Float64Range(2e9, 3e9)
					}
					c.InsertBatch(batch)
					c.DeleteBatch(batch)
				}
			}()
			var seed atomic.Uint64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				grng := xrand.New(100 + seed.Add(1))
				qs := make([]irs.ConcurrentQuery[float64], 16)
				for pb.Next() {
					for i := range qs {
						r := ranges[int(grng.Uint64n(uint64(len(ranges))))]
						qs[i] = irs.ConcurrentQuery[float64]{Lo: r.Lo, Hi: r.Hi, T: 64}
					}
					if _, err := c.SampleMany(qs, grng); err != nil {
						// b.Fatal is not legal from a RunParallel worker.
						b.Error(err)
						return
					}
				}
			})
			b.StopTimer()
			stop.Store(true)
			wg.Wait()
		})
	}
}

// BenchmarkE16InsertBatch — lock amortization: batched inserts vs the same
// keys inserted one call at a time; and load, the serving benchmark's
// set-up shape: 2^20 shuffled keys in 32768-key batches into an empty
// four-shard structure, one whole load per op.
func BenchmarkE16InsertBatch(b *testing.B) {
	rng := xrand.New(19)
	keys := workload.Keys(workload.Uniform, 100_000, rng)
	const batch = 1024
	fresh := make([]float64, batch)
	for mode, run := range map[string]func(c *irs.Concurrent[float64]){
		"point": func(c *irs.Concurrent[float64]) {
			for _, k := range fresh {
				c.Insert(k)
			}
		},
		"batch": func(c *irs.Concurrent[float64]) { c.InsertBatch(fresh) },
	} {
		b.Run(mode, func(b *testing.B) {
			c, err := irs.NewConcurrentFromSorted(keys, 8)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				for j := range fresh {
					fresh[j] = rng.Float64Range(0, 1e9)
				}
				b.StartTimer()
				run(c)
			}
		})
	}
	b.Run("load", func(b *testing.B) {
		load := workload.Keys(workload.Uniform, 1<<20, rng)
		rng.Shuffle(len(load), func(i, j int) { load[i], load[j] = load[j], load[i] })
		const loadBatch = 32768
		b.ResetTimer()
		for range b.N {
			c := irs.NewConcurrent[float64](4)
			for lo := 0; lo < len(load); lo += loadBatch {
				c.InsertBatch(load[lo : lo+loadBatch])
			}
		}
	})
}

// BenchmarkHarnessQuick runs the full harness in quick mode once per
// iteration — a smoke benchmark proving table generation end to end.
func BenchmarkHarnessQuick(b *testing.B) {
	if testing.Short() {
		b.Skip("harness smoke run")
	}
	for i := 0; i < b.N; i++ {
		e, _ := bench.ByID("E7")
		if _, err := e.Run(bench.Config{Quick: true, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}
