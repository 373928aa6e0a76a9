package shard

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"github.com/irsgo/irs/internal/weighted"
	"github.com/irsgo/irs/internal/xrand"
)

// goldenSplits lay out the golden datasets' four shards: [0, 1000),
// [1000, 2000), [2000, 3000) and [3000, 4000).
var goldenSplits = []float64{1000, 2000, 3000}

// goldenKey is the i-th of 4000 golden keys: runs of two equal keys.
func goldenKey(i int) float64 { return float64(i - i%2) }

// goldenWeight gives keys in [2600, 3000) — the top of shard 2 — zero
// weight and every other key a weight of 1 to 5.
func goldenWeight(k float64) float64 {
	if k >= 2600 && k < 3000 {
		return 0
	}
	return float64(1 + int(k)%5)
}

// goldenQueries hit one shard, a zero-mass slice of one shard, two shards
// (one of them contributing no mass in the weighted dataset), all four
// shards, and no key at all.
var goldenQueries = []struct {
	name   string
	lo, hi float64
}{
	{"one", 1100, 1800},
	{"zero", 2650, 2950},
	{"two", 1500, 2500},
	{"two-zero", 2700, 3300},
	{"all", -1, 5000},
	{"none", 5000, 6000},
}

var goldenTs = []int{1, 16, 1024}

// goldenSampler is the surface the golden test draws through.
type goldenSampler interface {
	SampleAppend(dst []float64, lo, hi float64, t int, rng *xrand.RNG) ([]float64, error)
	SampleManyStatsAppend([]float64, []int, []Query[float64], []QueryStats, *xrand.RNG) ([]float64, []int, error)
}

func goldenSamplers(t *testing.T) map[string]goldenSampler {
	t.Helper()
	c, err := NewFromSplits(goldenSplits)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWeightedFromSplits(goldenSplits, 11)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]float64, 4000)
	items := make([]weighted.Item[float64], len(keys))
	for i := range keys {
		keys[i] = goldenKey(i)
		items[i] = weighted.Item[float64]{Key: keys[i], Weight: goldenWeight(keys[i])}
	}
	c.InsertBatch(keys)
	w.InsertBatch(items)
	return map[string]goldenSampler{"unweighted": c, "weighted": w}
}

// goldenHash folds what a draw returned into one FNV-1a value: the error
// (or its absence), the samples, and optionally the batch's segment
// boundaries and per-query stats.
func goldenHash(samples []float64, err error, starts []int, stats []QueryStats) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	errText := "<nil>"
	if err != nil {
		errText = err.Error()
	}
	h.Write([]byte(errText))
	for _, s := range samples {
		put(math.Float64bits(s))
	}
	for _, s := range starts {
		put(uint64(s))
	}
	for _, st := range stats {
		put(uint64(st.N))
		put(math.Float64bits(st.Mass))
	}
	return h.Sum64()
}

// goldenDraws pins the engine's fixed-seed draws, one FNV-1a hash per
// case. The values were produced by the engine that searched each shard
// twice per query (a RangeStats pass, then a sampling pass that searched
// again); any change to how a query consumes its RNG or which shard
// answers which position changes them.
var goldenDraws = map[string]uint64{
	"unweighted/SampleAppend/all/t=1":         0x8ebbe466edeeb4e9,
	"unweighted/SampleAppend/all/t=1024":      0x1d787faa78f0ee02,
	"unweighted/SampleAppend/all/t=16":        0x77d131542f08883e,
	"unweighted/SampleAppend/none/t=1":        0x8143f6d7c33256c6,
	"unweighted/SampleAppend/none/t=1024":     0x8143f6d7c33256c6,
	"unweighted/SampleAppend/none/t=16":       0x8143f6d7c33256c6,
	"unweighted/SampleAppend/one/t=1":         0xd7b51a67184e759e,
	"unweighted/SampleAppend/one/t=1024":      0xff582035d41214a4,
	"unweighted/SampleAppend/one/t=16":        0xd9ec70569c23cf87,
	"unweighted/SampleAppend/two-zero/t=1":    0xac08106308c1f7ad,
	"unweighted/SampleAppend/two-zero/t=1024": 0xe9224908d6884d54,
	"unweighted/SampleAppend/two-zero/t=16":   0x7c33702a5d463528,
	"unweighted/SampleAppend/two/t=1":         0xa7e4064f03410cf,
	"unweighted/SampleAppend/two/t=1024":      0x619aa4ab3a2d4cca,
	"unweighted/SampleAppend/two/t=16":        0x3fba498652689bc4,
	"unweighted/SampleAppend/zero/t=1":        0x84c96e677a4adb8e,
	"unweighted/SampleAppend/zero/t=1024":     0x696e74ad11d63b3b,
	"unweighted/SampleAppend/zero/t=16":       0x4351f977f7078b9a,
	"unweighted/SampleManyStatsAppend":        0xe87705ebeaa1725f,
	"weighted/SampleAppend/all/t=1":           0x84a126677a290f22,
	"weighted/SampleAppend/all/t=1024":        0x2e96d0fad8a1b180,
	"weighted/SampleAppend/all/t=16":          0x27f85dd42aba04c5,
	"weighted/SampleAppend/none/t=1":          0x8143f6d7c33256c6,
	"weighted/SampleAppend/none/t=1024":       0x8143f6d7c33256c6,
	"weighted/SampleAppend/none/t=16":         0x8143f6d7c33256c6,
	"weighted/SampleAppend/one/t=1":           0x8f83e666ee9835dc,
	"weighted/SampleAppend/one/t=1024":        0x4315aa5e73e07444,
	"weighted/SampleAppend/one/t=16":          0x78e3450d2bc65ab,
	"weighted/SampleAppend/two-zero/t=1":      0xfadbaa672c5b4ee0,
	"weighted/SampleAppend/two-zero/t=1024":   0x95315790049c62c6,
	"weighted/SampleAppend/two-zero/t=16":     0xefe9b409106d5d55,
	"weighted/SampleAppend/two/t=1":           0x55105e63674e9344,
	"weighted/SampleAppend/two/t=1024":        0x161a6f3a4f32fb48,
	"weighted/SampleAppend/two/t=16":          0xce07b88435687e69,
	"weighted/SampleAppend/zero/t=1":          0xb41b67d72c05604b,
	"weighted/SampleAppend/zero/t=1024":       0xb41b67d72c05604b,
	"weighted/SampleAppend/zero/t=16":         0xb41b67d72c05604b,
	"weighted/SampleManyStatsAppend":          0xf3f2d194374b4119,
}

// TestEngineDrawsGolden: SampleAppend and SampleManyStatsAppend return the
// same samples, errors and stats for a fixed seed as the engine that
// produced goldenDraws, on both instantiations, for queries inside one
// shard, across two and across all four, at t = 1, 16 and 1024.
func TestEngineDrawsGolden(t *testing.T) {
	got := map[string]uint64{}
	for kind, s := range goldenSamplers(t) {
		for qi, q := range goldenQueries {
			for _, n := range goldenTs {
				rng := xrand.New(uint64(1000*qi + n))
				out, err := s.SampleAppend(nil, q.lo, q.hi, n, rng)
				got[fmt.Sprintf("%s/SampleAppend/%s/t=%d", kind, q.name, n)] = goldenHash(out, err, nil, nil)
			}
		}
		var queries []Query[float64]
		for _, q := range goldenQueries {
			for _, n := range goldenTs {
				queries = append(queries, Query[float64]{Lo: q.lo, Hi: q.hi, T: n})
			}
		}
		stats := make([]QueryStats, len(queries))
		out, starts, err := s.SampleManyStatsAppend(nil, nil, queries, stats, xrand.New(42))
		got[kind+"/SampleManyStatsAppend"] = goldenHash(out, err, starts, stats)
	}
	for name, h := range got {
		if want, ok := goldenDraws[name]; !ok || h != want {
			t.Errorf("%s: draws hash %#x, want %#x", name, h, want)
		}
	}
	if len(got) != len(goldenDraws) {
		t.Errorf("%d cases, golden table has %d", len(got), len(goldenDraws))
	}
}
