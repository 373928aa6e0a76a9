package chunks

import (
	"fmt"
	"slices"
	"sort"
	"testing"
	"time"

	"github.com/irsgo/irs/internal/stats"
	"github.com/irsgo/irs/internal/xrand"
)

// scalarOne is the reference the blocked kernel must match bit for bit: one
// probe at a time, each drawing its whole (group, chunk slot, element slot)
// triple — (chunk, element slot) in chunks mode — as one identifier below
// span before any load. It returns the accepted key, the probes it took and
// the position identifier.
func (r *Run[K]) scalarOne(rng *xrand.RNG) (K, int, uint64) {
	for probes := 1; ; probes++ {
		v := rng.Uint64n(r.span())
		if slot := r.decode(v); slot != nil && *slot >= r.lo && *slot <= r.hi {
			return *slot, probes, v
		}
	}
}

// span returns the number of position identifiers one probe draws from.
func (r *Run[K]) span() uint64 {
	cap2s := uint64(2 * r.list.s)
	switch r.mode {
	case modeCollect:
		return uint64(len(r.scratch))
	case modeChunks:
		return uint64(r.nChunks) * cap2s
	case modeGroups:
		return uint64(r.gHi-r.gLo+1) * cap2s * cap2s
	}
	panic("chunks: scalar reference on empty run")
}

// decode returns the slot position identifier v names — a chunk slot and
// element slot below 2s each, of the v/(2s)²-th group in groups mode, of
// the v/(2s)-th chunk in chunks mode, or the v-th collected key — or nil
// when a slot is empty. A probe drawing v accepts the slot's key iff it is
// in range.
func (r *Run[K]) decode(v uint64) *K {
	cap2s := uint64(2 * r.list.s)
	switch r.mode {
	case modeCollect:
		return &r.scratch[v]
	case modeChunks:
		ch := r.chunkAt(int(v / cap2s))
		if e := v % cap2s; e < uint64(len(ch.keys)) {
			return &ch.keys[e]
		}
	case modeGroups:
		g, c, e := v/cap2s/cap2s, v/cap2s%cap2s, v%cap2s
		grp := &r.list.groups[r.gLo+int(g)]
		if c < uint64(len(grp.chunks)) && e < uint64(len(grp.chunks[c].keys)) {
			return &grp.chunks[c].keys[e]
		}
	}
	return nil
}

// scalarOldOne is the scalar loop this package shipped before the blocked
// kernel: it drew a probe's coordinates one at a time, and a groups-mode
// probe rejected at its chunk slot skipped its element draw. It draws a
// different stream from the same seed; it is kept only to show that the
// one-time stream change preserves the distribution.
func (r *Run[K]) scalarOldOne(rng *xrand.RNG) K {
	cap2s := uint64(2 * r.list.s)
	for {
		var ch *chunk[K]
		switch r.mode {
		case modeChunks:
			ch = r.chunkAt(int(rng.Uint64n(uint64(r.nChunks))))
		case modeGroups:
			grp := &r.list.groups[r.gLo+int(rng.Uint64n(uint64(r.gHi-r.gLo+1)))]
			c := rng.Uint64n(cap2s)
			if c >= uint64(len(grp.chunks)) {
				continue
			}
			ch = &grp.chunks[c]
		default:
			k, _, _ := r.scalarOne(rng)
			return k
		}
		e := rng.Uint64n(cap2s)
		if e >= uint64(len(ch.keys)) {
			continue
		}
		if k := ch.keys[e]; k >= r.lo && k <= r.hi {
			return k
		}
	}
}

// scalarAppend draws t samples through the scalar reference.
func (r *Run[K]) scalarAppend(dst []K, t int, rng *xrand.RNG) []K {
	for range t {
		k, _, _ := r.scalarOne(rng)
		dst = append(dst, k)
	}
	return dst
}

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

// grownLists splits keys into parts equal-depth lists and grows them the
// way a sharded engine loads: shuffled batches of batch keys, each sorted
// and inserted key by key into the list that owns it.
func grownLists(keys []float64, parts, batch int, seed uint64) []*List[float64] {
	lists := make([]*List[float64], parts)
	bounds := make([]float64, parts-1)
	for i := range lists {
		lists[i] = New[float64]()
		if i > 0 {
			bounds[i-1] = keys[i*len(keys)/parts]
		}
	}
	shuffled := append([]float64(nil), keys...)
	xrand.New(seed).Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	for lo := 0; lo < len(shuffled); lo += batch {
		b := shuffled[lo:min(lo+batch, len(shuffled))]
		slices.Sort(b)
		for _, k := range b {
			lists[sort.Search(len(bounds), func(i int) bool { return k < bounds[i] })].Insert(k)
		}
	}
	return lists
}

// kernelRuns returns a groups-, a chunks- and a collect-mode run over a
// list built from sorted keys and over one grown by inserts (uneven fills).
func kernelRuns(t *testing.T) map[string]*Run[int] {
	t.Helper()
	built, err := NewFromSorted(seq(200000))
	if err != nil {
		t.Fatal(err)
	}
	grown := New[int]()
	r := xrand.New(40)
	for range 200000 {
		grown.Insert(r.Intn(400000))
	}
	runs := map[string]*Run[int]{}
	for name, l := range map[string]*List[int]{"built": built, "grown": grown} {
		s := l.S()
		for _, rg := range []struct {
			mode   runMode
			lo, hi int
		}{{modeGroups, 1000, 150000}, {modeChunks, 5000, 5000 + 12*s}, {modeCollect, 7000, 7000 + s/2}} {
			run := l.NewRun(rg.lo, rg.hi)
			if run.mode != rg.mode {
				t.Fatalf("%s [%d, %d]: mode %d, want %d", name, rg.lo, rg.hi, run.mode, rg.mode)
			}
			runs[fmt.Sprintf("%s/mode=%d", name, rg.mode)] = run
		}
	}
	return runs
}

// TestKernelMatchesScalarReference: for the same seed, the blocked kernel
// returns exactly the scalar reference's samples, probe counts and
// position identifiers, and leaves the generator in the same state — so
// blocking changes only when loads are issued, never which probes are
// drawn or accepted, and it never overdraws.
func TestKernelMatchesScalarReference(t *testing.T) {
	for name, run := range kernelRuns(t) {
		for _, n := range []int{1, blockSize - 1, blockSize, blockSize + 1, 1024, 4097} {
			seed := uint64(1000 + n)
			ref, kern := xrand.New(seed), xrand.New(seed)
			var wantKeys []int
			var wantProbes []int
			var wantIDs []uint64
			for range n {
				k, p, id := run.scalarOne(ref)
				wantKeys, wantProbes, wantIDs = append(wantKeys, k), append(wantProbes, p), append(wantIDs, id)
			}
			next := ref.Uint64()

			keys, probes := run.SampleProbesAppend(nil, nil, n, kern)
			if !slices.Equal(keys, wantKeys) || !slices.Equal(probes, wantProbes) {
				t.Fatalf("%s t=%d: SampleProbesAppend differs from the scalar reference", name, n)
			}
			if got := kern.Uint64(); got != next {
				t.Fatalf("%s t=%d: SampleProbesAppend left the RNG at %x, reference at %x", name, n, got, next)
			}

			kern = xrand.New(seed)
			if got := run.SampleAppend(nil, n, kern); !slices.Equal(got, wantKeys) || kern.Uint64() != next {
				t.Fatalf("%s t=%d: SampleAppend differs from the scalar reference", name, n)
			}

			// The identifiers, straight from the kernel's blocks.
			k := kernel[int]{r: run, rng: xrand.New(seed), missing: n}
			var ids []uint64
			for k.missing > 0 {
				m := k.step()
				ids = append(ids, k.ids[:m]...)
			}
			kern = k.rng
			if !slices.Equal(ids, wantIDs) || kern.Uint64() != next {
				t.Fatalf("%s t=%d: kernel position identifiers differ from the scalar reference", name, n)
			}

			// The one-sample entries are one-probe kernel calls.
			kern = xrand.New(seed)
			for i := range n {
				k, id := run.SamplePos(kern)
				if k != wantKeys[i] || id != wantIDs[i] {
					t.Fatalf("%s t=%d: SamplePos #%d = (%d, %d), want (%d, %d)", name, n, i, k, id, wantKeys[i], wantIDs[i])
				}
			}
			if kern.Uint64() != next {
				t.Fatalf("%s t=%d: SamplePos left the RNG in a different state", name, n)
			}
		}
	}
}

// TestKernelStreamChangePreservesDistribution: the kernel draws a probe's
// coordinates as one integer, where the scalar loop it replaced drew them
// one at a time and skipped the element draw after a chunk-slot rejection,
// so a seed's stream changed once. A two-sample chi-square of the old
// stream against the new, in both probing modes over a list with uneven
// fills, shows the change is distribution-preserving.
func TestKernelStreamChangePreservesDistribution(t *testing.T) {
	runs := kernelRuns(t)
	for _, name := range []string{"grown/mode=1", "grown/mode=2"} {
		run := runs[name]
		const draws, cells = 200000, 64
		oldRNG, newRNG := xrand.New(51), xrand.New(52)
		oldCounts, newCounts := make([]int, cells), make([]int, cells)
		width := float64(run.hi-run.lo+1) / cells
		for _, k := range run.SampleAppend(nil, draws, newRNG) {
			newCounts[int(float64(k-run.lo)/width)]++
		}
		for range draws {
			oldCounts[int(float64(run.scalarOldOne(oldRNG)-run.lo)/width)]++
		}
		// Homogeneity of two equal-size samples: sum (a-b)^2/(a+b) over the
		// occupied cells, df = occupied-1.
		stat, occupied := 0.0, 0
		for i := range cells {
			a, b := float64(oldCounts[i]), float64(newCounts[i])
			if a+b > 0 {
				stat += (a - b) * (a - b) / (a + b)
				occupied++
			}
		}
		if crit := stats.ChiSquareCritical(occupied-1, 1e-3); stat > crit {
			t.Fatalf("%s: old vs new stream: chi-square %.1f > %.1f", name, stat, crit)
		}
	}
}

// TestKernelZeroAllocs pins the kernel at zero allocations in every mode:
// the blockSize-sized stage arrays stay on the stack.
func TestKernelZeroAllocs(t *testing.T) {
	rng := xrand.New(60)
	for name, run := range kernelRuns(t) {
		buf := make([]int, 0, 1024)
		probes := make([]int, 0, 1024)
		allocs := testing.AllocsPerRun(20, func() {
			buf = run.SampleAppend(buf[:0], 1024, rng)
			buf, probes = run.SampleProbesAppend(buf[:0], probes[:0], 1024, rng)
			run.SamplePos(rng)
		})
		if allocs != 0 {
			t.Fatalf("%s: kernel allocated %v times per run, want 0", name, allocs)
		}
	}
}

// BenchmarkDrawPair alternates the scalar reference and the blocked kernel
// in one process — 10 rounds, each timing both on every query in
// alternating order — at
// the shape of a 4-shard engine holding 1M keys grown by shuffled
// 32768-key batches, t = 1024 over 10-100% ranges. It reports both
// medians, their ratio and how many rounds the kernel won.
func BenchmarkDrawPair(b *testing.B) {
	const parts, perPart, t, queries, rounds = 4, 250_000, 1024, 128, 10
	keys := mixtureKeys(80, parts*perPart)
	lists := grownLists(keys, parts, 32768, 81)
	rng := xrand.New(82)
	type query struct {
		l      *List[float64]
		lo, hi float64
	}
	qs := make([]query, queries)
	for i := range qs {
		l := lists[i%parts]
		all := l.AppendKeys(nil)
		width := len(all) / 10 * (1 + rng.Intn(10))
		start := rng.Intn(len(all) - width + 1)
		qs[i] = query{l, all[start], all[start+width-1]}
	}
	var run Run[float64]
	buf := make([]float64, 0, t)
	draw := func(q query, kernel bool) time.Duration {
		start := time.Now()
		q.l.InitRun(&run, q.lo, q.hi)
		if kernel {
			buf = run.SampleAppend(buf[:0], t, rng)
		} else {
			buf = run.scalarAppend(buf[:0], t, rng)
		}
		return time.Since(start)
	}
	// round times both variants on every query, back to back in
	// alternating order, so a burst of host noise lands on both.
	round := func() (scalar, kernel float64) {
		var s, k time.Duration
		for i, q := range qs {
			if i%2 == 0 {
				s += draw(q, false)
				k += draw(q, true)
			} else {
				k += draw(q, true)
				s += draw(q, false)
			}
		}
		return float64(s.Nanoseconds()) / (queries * t), float64(k.Nanoseconds()) / (queries * t)
	}
	round() // warm both paths and the caches
	b.ResetTimer()
	var ss, ks []float64
	wins := 0
	for range b.N {
		for range rounds {
			s, k := round()
			ss, ks = append(ss, s), append(ks, k)
			if k < s {
				wins++
			}
		}
	}
	slices.Sort(ss)
	slices.Sort(ks)
	b.ReportMetric(ss[len(ss)/2], "scalar-ns/sample")
	b.ReportMetric(ks[len(ks)/2], "kernel-ns/sample")
	b.ReportMetric(ks[len(ks)/2]/ss[len(ss)/2], "ratio")
	b.ReportMetric(float64(wins)/float64(b.N), "kernel-wins/10")
}
