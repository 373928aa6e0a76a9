package bench

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/irsgo/irs/internal/server"
	"github.com/irsgo/irs/internal/shard"
	"github.com/irsgo/irs/internal/workload"
	"github.com/irsgo/irs/internal/xrand"
)

// E18 — the serving layer's request coalescer (internal/server, the core
// of cmd/irsd). Two claims are measured, with a background writer applying
// continuous churn — the regime a serving daemon lives in:
//
//  1. Coalescing divides backend traffic: batches form from whatever
//     queued while the flushers were busy (the shipped default — no linger
//     window), so once clients outnumber flushers the average coalesced
//     batch grows with the client count and backend SampleMany calls —
//     each a round of shard lock acquisitions (E16c/E17c measure why that
//     matters) — fall by the same factor relative to the per-request
//     baseline, where every client request is its own backend call.
//  2. Coalesced throughput scales with client concurrency: requests per
//     second grows with clients because batches widen instead of the
//     backend call rate.
//
// Both modes run the same closed-loop client goroutines issuing one
// (lo, hi, t) query at a time: per-request calls SampleMany([1 query])
// directly; coalesced goes through Core.Sample. At low concurrency a
// request finds a flusher idle and is flushed alone (avg batch ≈ 1): the
// coalescer then costs one goroutine hand-off and buys nothing, which is
// the honest price of the first row; as clients multiply, batches widen
// and the throughput ratio climbs while backend calls stay bounded.
func runE18(cfg Config) ([]*Table, error) {
	n := cfg.scaled(500_000, 50_000)
	rng := xrand.New(cfg.Seed + 26)
	keys := workload.Keys(workload.Uniform, n, rng)
	sorted := append([]float64(nil), keys...)
	slices.Sort(sorted)
	ranges := workload.RangesWithSelectivity(keys, querySel, 256, rng)
	const t = 16
	procs := runtime.GOMAXPROCS(0)

	window := cfg.minDur()
	if window < 50*time.Millisecond {
		window = 50 * time.Millisecond
	}

	table := &Table{
		Title: fmt.Sprintf("E18 — Coalesced vs per-request serving, n=%s, t=%d, no linger (irsd default), background writer churn, GOMAXPROCS=%d",
			fmtCount(n), t, procs),
		Columns: []string{"clients", "per-request q/s", "coalesced q/s", "ratio", "avg batch", "backend calls/s"},
		Notes: []string{"Claim: coalescing bounds backend traffic — batches form from what queued",
			"while the flushers were busy, so the average batch grows with the client",
			"count and backend SampleMany calls (lock-acquisition rounds) fall by that",
			"factor versus one call per request — while coalesced q/s scales with clients.",
			"(ratio = coalesced / per-request q/s; avg batch = sample requests per",
			"backend call; backend calls/s is the coalesced run's SampleMany rate)"},
	}

	for _, clients := range []int{1, 8, 32, 128} {
		direct := e18Throughput(sorted, ranges, clients, t, window, cfg.Seed+27, nil)
		core := server.NewCore[float64](server.Config{
			QueueDepth: 8192,
			MaxBatch:   256,
			Flushers:   procs,
		})
		coalesced := e18Throughput(sorted, ranges, clients, t, window, cfg.Seed+28, core)
		avgBatch := 1.0
		if ds := core.Stats().Datasets; len(ds) == 1 && ds[0].SampleBatches > 0 {
			avgBatch = float64(ds[0].SampleRequests) / float64(ds[0].SampleBatches)
		}
		core.Close()
		table.AddRow(fmt.Sprintf("%d", clients),
			fmt.Sprintf("%.0f", direct), fmt.Sprintf("%.0f", coalesced),
			fmt.Sprintf("%.2fx", coalesced/direct), fmt.Sprintf("%.1f", avgBatch),
			fmt.Sprintf("%.0f", coalesced/avgBatch))
	}
	return []*Table{table}, nil
}

// e18Throughput measures aggregate request throughput over the window:
// clients goroutines each issue single-query sample requests against a
// fresh Concurrent built from sorted, while one writer goroutine applies
// continuous InsertBatch/DeleteBatch churn. With core == nil requests go
// straight to SampleMany (per-request mode); otherwise through the
// coalescing core.
func e18Throughput(sorted []float64, ranges []workload.Range, clients, t int, window time.Duration, seed uint64, core *server.Core[float64]) float64 {
	c, err := shard.NewFromSortedSeeded(sorted, runtime.GOMAXPROCS(0), seed)
	if err != nil {
		panic(err)
	}
	if core != nil {
		if err := core.Add("d", server.NewUnweightedDataset(c)); err != nil {
			panic(err)
		}
	}
	rng := xrand.New(seed)

	var stop atomic.Bool
	var served atomic.Int64
	var wg sync.WaitGroup

	wrng := rng.Split()
	wg.Add(1)
	go func() { // continuous write churn in a disjoint key block
		defer wg.Done()
		batch := make([]float64, 256)
		for !stop.Load() {
			for i := range batch {
				batch[i] = wrng.Float64Range(2e9, 3e9)
			}
			c.InsertBatch(batch)
			c.DeleteBatch(batch)
		}
	}()

	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(grng *xrand.RNG) {
			defer wg.Done()
			q := make([]shard.Query[float64], 1)
			for !stop.Load() {
				r := ranges[int(grng.Uint64n(uint64(len(ranges))))]
				if core != nil {
					if _, err := core.Sample("d", r.Lo, r.Hi, t); err != nil {
						panic(err)
					}
				} else {
					q[0] = shard.Query[float64]{Lo: r.Lo, Hi: r.Hi, T: t}
					if _, err := c.SampleMany(q, grng); err != nil {
						panic(err)
					}
				}
				served.Add(1)
			}
		}(rng.Split())
	}

	start := time.Now()
	time.Sleep(window)
	stop.Store(true)
	wg.Wait()
	return float64(served.Load()) / time.Since(start).Seconds()
}
