package shard

import (
	"encoding/binary"
	"math"
	"slices"
	"testing"

	"github.com/irsgo/irs/internal/weighted"
	"github.com/irsgo/irs/internal/xrand"
)

// weightPalette maps a fuzz byte to a deliberately degenerate weight: lots
// of zeros, ties, and twelve-orders-of-magnitude ratios — the layouts that
// stress the mass-proportional multinomial split and zero-mass exclusion.
func weightPalette(code byte) float64 {
	switch code % 8 {
	case 0, 1:
		return 0
	case 2:
		return 1
	case 3:
		return 1
	case 4:
		return 0.5
	case 5:
		return 1e-12
	case 6:
		return 1e12
	default:
		return float64(code)
	}
}

// FuzzWeightedShardRouting checks the weighted partition invariants under
// arbitrary split layouts, key sets, and degenerate weight distributions:
// every key routes into its shard's interval, per-shard occupancy sums to
// the whole, cross-shard range counts and weight totals match brute force,
// and samples are always stored in-range keys of positive aggregate weight
// (or the query fails with exactly the zero-weight error).
func FuzzWeightedShardRouting(f *testing.F) {
	f.Add([]byte{2, 10, 0, 7, 20, 0, 1, 5, 0, 0, 10, 0, 2, 15, 0, 6, 20, 0, 0, 25, 0, 3})
	f.Add([]byte{0, 1, 2, 3, 4, 5})
	f.Add([]byte{5, 7, 0, 0, 7, 0, 0, 7, 0, 2, 7, 0, 6, 7, 0, 1}) // duplicate splits/keys, mixed zero weights
	f.Add([]byte{8, 255, 255, 5, 0, 0, 6, 128, 1, 0, 64, 2, 7, 32, 3, 4})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		// Byte 0: split count (0..8). Then 3-byte records: a 2-byte
		// little-endian int16 key and one weight-palette byte. The int16
		// domain is small enough that keys collide with splits and each
		// other constantly.
		nSplits := int(data[0]) % 9
		data = data[1:]
		var items []weighted.Item[int]
		for len(data) >= 3 {
			k := int(int16(binary.LittleEndian.Uint16(data)))
			items = append(items, weighted.Item[int]{Key: k, Weight: weightPalette(data[2])})
			data = data[3:]
		}
		if len(items) > 256 {
			items = items[:256]
		}
		if len(items) < nSplits {
			nSplits = len(items)
		}
		splits := make([]int, 0, nSplits)
		for _, it := range items[:nSplits] {
			splits = append(splits, it.Key)
		}
		slices.Sort(splits)
		items = items[nSplits:]

		wc, err := NewWeightedFromSplits(splits, uint64(len(items))*17+1)
		if err != nil {
			t.Fatalf("sorted splits rejected: %v", err)
		}

		// Routing: every key maps to exactly one shard interval.
		for _, it := range items {
			i := wc.route(it.Key)
			if i < 0 || i >= len(wc.shards) {
				t.Fatalf("route(%d) = %d with %d shards", it.Key, i, len(wc.shards))
			}
			if i > 0 && it.Key < splits[i-1] {
				t.Fatalf("key %d routed to shard %d below its lower bound %d", it.Key, i, splits[i-1])
			}
			if i < len(splits) && it.Key >= splits[i] {
				t.Fatalf("key %d routed to shard %d at/above its upper bound %d", it.Key, i, splits[i])
			}
		}

		if err := wc.InsertBatch(items); err != nil {
			t.Fatalf("InsertBatch: %v", err)
		}
		if err := wc.Validate(); err != nil {
			t.Fatal(err)
		}

		// Per-shard occupancy sums to the whole.
		st := wc.Stats()
		sum := 0
		for _, n := range st.PerShard {
			sum += n
		}
		if sum != len(items) || st.Len != len(items) {
			t.Fatalf("shard occupancies sum to %d (stats len %d), want %d", sum, st.Len, len(items))
		}

		// Cross-shard range counts and weight totals match brute force,
		// including ranges with endpoints exactly on split values — through
		// Count and TotalWeight, and through the per-query stats of one
		// SampleManyStatsAppend batch over every probe pair, whose samples
		// must be stored keys in range with positive weight.
		probes := append([]int(nil), splits...)
		for _, it := range items {
			probes = append(probes, it.Key)
		}
		if len(probes) > 24 {
			probes = probes[:24]
		}
		keyW := map[int]float64{}
		for _, it := range items {
			keyW[it.Key] += it.Weight
		}
		massClose := func(got, want float64) bool {
			return math.Abs(got-want) <= 1e-9*(math.Abs(want)+1)
		}
		var queries []Query[int]
		var wants []QueryStats
		for _, lo := range probes {
			for _, hi := range probes {
				wantC := 0
				wantW := 0.0
				for _, it := range items {
					if it.Key >= lo && it.Key <= hi {
						wantC++
						wantW += it.Weight
					}
				}
				if got := wc.Count(lo, hi); got != wantC {
					t.Fatalf("Count(%d, %d) = %d, want %d", lo, hi, got, wantC)
				}
				if got := wc.TotalWeight(lo, hi); !massClose(got, wantW) {
					t.Fatalf("TotalWeight(%d, %d) = %g, want %g", lo, hi, got, wantW)
				}
				queries = append(queries, Query[int]{Lo: lo, Hi: hi, T: 3})
				wants = append(wants, QueryStats{N: wantC, Mass: wantW})
			}
		}
		stats := make([]QueryStats, len(queries))
		out, starts, err := wc.SampleManyStatsAppend(nil, nil, queries, stats, xrand.New(uint64(len(queries))))
		if err != nil {
			t.Fatal(err)
		}
		for i, q := range queries {
			if stats[i].N != wants[i].N || !massClose(stats[i].Mass, wants[i].Mass) {
				t.Fatalf("SampleManyStatsAppend [%d, %d]: stats %+v, want %+v", q.Lo, q.Hi, stats[i], wants[i])
			}
			seg := out[starts[i]:starts[i+1]]
			wantLen := q.T
			if stats[i].Mass <= 0 {
				wantLen = 0
			}
			if len(seg) != wantLen {
				t.Fatalf("SampleManyStatsAppend [%d, %d]: %d samples from mass %g", q.Lo, q.Hi, len(seg), stats[i].Mass)
			}
			for _, k := range seg {
				if k < q.Lo || k > q.Hi || keyW[k] <= 0 {
					t.Fatalf("SampleManyStatsAppend [%d, %d]: sample %d invalid (keyW %g)", q.Lo, q.Hi, k, keyW[k])
				}
			}
		}

		if len(items) == 0 {
			return
		}

		// Samples across shards are always stored, in-range keys with
		// positive aggregate weight; zero-mass ranges fail with exactly
		// ErrZeroWeightRange.
		lo, hi := items[0].Key, items[0].Key
		for _, it := range items {
			lo = min(lo, it.Key)
			hi = max(hi, it.Key)
		}
		totalW := 0.0
		for _, w := range keyW {
			totalW += w
		}
		rng := xrand.New(uint64(len(items))*31 + uint64(nSplits))
		out, err = wc.Sample(lo, hi, 16, rng)
		if totalW <= 0 {
			if err != weighted.ErrZeroWeightRange {
				t.Fatalf("zero-mass span: err = %v", err)
			}
			return
		}
		if err != nil {
			t.Fatalf("Sample over full key span: %v", err)
		}
		for _, k := range out {
			if k < lo || k > hi || keyW[k] <= 0 {
				t.Fatalf("sample %d invalid (range [%d, %d], keyW %g)", k, lo, hi, keyW[k])
			}
		}

		// UpdateWeight on unique keys keeps totals exact (duplicate keys
		// are skipped: the structure may update any one occurrence).
		mult := map[int]int{}
		for _, it := range items {
			mult[it.Key]++
		}
		updated := 0
		for _, it := range items {
			if mult[it.Key] != 1 || updated >= 8 {
				continue
			}
			updated++
			ok, err := wc.UpdateWeight(it.Key, 3)
			if err != nil || !ok {
				t.Fatalf("UpdateWeight(%d): %v %v", it.Key, ok, err)
			}
			got := wc.TotalWeight(it.Key, it.Key)
			if math.Abs(got-3) > 1e-9 {
				t.Fatalf("weight after update = %g, want 3", got)
			}
		}
		if err := wc.Validate(); err != nil {
			t.Fatal(err)
		}
	})
}
