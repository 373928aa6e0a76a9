package shard

import (
	"encoding/binary"
	"slices"
	"testing"

	"github.com/irsgo/irs/internal/xrand"
)

// FuzzShardRouting checks the partition invariants under arbitrary split
// layouts and key sets: every key routes to exactly one shard and lands
// inside that shard's interval, per-shard counts sum to the whole, and
// cross-shard range counts match a brute-force reference. Degenerate
// layouts — duplicate splits, all keys equal, keys straddling split values
// exactly — are exactly what the byte-driven corpus explores.
func FuzzShardRouting(f *testing.F) {
	f.Add([]byte{2, 10, 0, 20, 0, 5, 0, 10, 0, 15, 0, 20, 0, 25, 0})
	f.Add([]byte{0, 1, 2, 3})
	f.Add([]byte{5, 7, 0, 7, 0, 7, 0, 7, 0, 7, 0, 7, 0, 7, 0}) // duplicate splits and keys
	f.Add([]byte{8, 255, 255, 0, 0, 128, 1, 64, 2, 32, 3, 16, 4, 8, 5, 4, 6, 2, 7})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		// Byte 0: split count (0..8). Then 2-byte little-endian values:
		// first the splits, then the keys. The int16 domain is small enough
		// that keys collide with splits and each other constantly.
		nSplits := int(data[0]) % 9
		data = data[1:]
		vals := make([]int, 0, len(data)/2)
		for len(data) >= 2 {
			vals = append(vals, int(int16(binary.LittleEndian.Uint16(data))))
			data = data[2:]
		}
		if len(vals) < nSplits {
			nSplits = len(vals)
		}
		splits := append([]int(nil), vals[:nSplits]...)
		slices.Sort(splits)
		keys := vals[nSplits:]
		if len(keys) > 256 {
			keys = keys[:256]
		}

		c, err := NewFromSplits(splits)
		if err != nil {
			t.Fatalf("sorted splits rejected: %v", err)
		}

		// Routing: every key maps to exactly one shard, and that shard's
		// interval [splits[i-1], splits[i]) contains it.
		for _, k := range keys {
			i := c.route(k)
			if i < 0 || i >= len(c.shards) {
				t.Fatalf("route(%d) = %d with %d shards", k, i, len(c.shards))
			}
			if i > 0 && k < splits[i-1] {
				t.Fatalf("key %d routed to shard %d below its lower bound %d", k, i, splits[i-1])
			}
			if i < len(splits) && k >= splits[i] {
				t.Fatalf("key %d routed to shard %d at/above its upper bound %d", k, i, splits[i])
			}
		}

		c.InsertBatch(keys)
		if err := c.Validate(); err != nil {
			t.Fatal(err)
		}

		// Per-shard occupancy sums to the whole.
		st := c.Stats()
		sum := 0
		for _, n := range st.PerShard {
			sum += n
		}
		if sum != len(keys) || st.Len != len(keys) {
			t.Fatalf("shard occupancies sum to %d (stats len %d), want %d", sum, st.Len, len(keys))
		}

		// Cross-shard range counts match brute force, including ranges with
		// endpoints exactly on split values — through Count and through the
		// per-query stats of one SampleManyStatsAppend batch over every
		// probe pair, whose samples must be stored keys in range.
		probes := append([]int(nil), splits...)
		probes = append(probes, keys...)
		if len(probes) > 32 {
			probes = probes[:32]
		}
		stored := map[int]bool{}
		for _, k := range keys {
			stored[k] = true
		}
		var queries []Query[int]
		var wants []int
		for _, lo := range probes {
			for _, hi := range probes {
				want := 0
				for _, k := range keys {
					if k >= lo && k <= hi {
						want++
					}
				}
				if got := c.Count(lo, hi); got != want {
					t.Fatalf("Count(%d, %d) = %d, want %d", lo, hi, got, want)
				}
				queries = append(queries, Query[int]{Lo: lo, Hi: hi, T: 3})
				wants = append(wants, want)
			}
		}
		stats := make([]QueryStats, len(queries))
		out, starts, err := c.SampleManyStatsAppend(nil, nil, queries, stats, xrand.New(uint64(len(queries))))
		if err != nil {
			t.Fatal(err)
		}
		for i, q := range queries {
			if want := (QueryStats{N: wants[i], Mass: float64(wants[i])}); stats[i] != want {
				t.Fatalf("SampleManyStatsAppend [%d, %d]: stats %+v, want %+v", q.Lo, q.Hi, stats[i], want)
			}
			seg := out[starts[i]:starts[i+1]]
			if len(seg) != min(wants[i], 1)*q.T {
				t.Fatalf("SampleManyStatsAppend [%d, %d]: %d samples from %d keys", q.Lo, q.Hi, len(seg), wants[i])
			}
			for _, k := range seg {
				if k < q.Lo || k > q.Hi || !stored[k] {
					t.Fatalf("SampleManyStatsAppend [%d, %d]: sample %d invalid", q.Lo, q.Hi, k)
				}
			}
		}

		// Samples drawn across shards are always stored, in-range keys.
		if len(keys) > 0 {
			lo := slices.Min(keys)
			hi := slices.Max(keys)
			rng := xrand.New(uint64(len(keys))*31 + uint64(nSplits))
			out, err := c.Sample(lo, hi, 16, rng)
			if err != nil {
				t.Fatalf("Sample over full key span: %v", err)
			}
			for _, k := range out {
				if k < lo || k > hi || c.Count(k, k) == 0 {
					t.Fatalf("sample %d invalid (range [%d, %d])", k, lo, hi)
				}
			}
		}
	})
}
