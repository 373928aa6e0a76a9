package server

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"testing"

	"github.com/irsgo/irs/internal/persist"
	"github.com/irsgo/irs/internal/shard"
	"github.com/irsgo/irs/internal/stats"
	"github.com/irsgo/irs/internal/xrand"
)

const persistAlpha = 1e-4

// openDurableWeighted recovers dir into a fresh weighted dataset served by
// a durable Core: the exact boot path of irsd -data-dir.
func openDurableWeighted(t *testing.T, dir string, cfg Config) (*Core[float64], Dataset[float64], persist.RecoveryStats) {
	t.Helper()
	store, rec, err := persist.Open(dir, persist.Float64Keys(), persist.Options{Kind: persist.KindWeighted, Sync: persist.SyncAlways})
	if err != nil {
		t.Fatalf("persist.Open: %v", err)
	}
	w, err := shard.NewWeightedFromItems(rec.Entries, 4, 7)
	if err != nil {
		t.Fatalf("bulk load: %v", err)
	}
	ds := NewWeightedDataset(w)
	replay(t, ds, rec.Records)
	core := NewCore[float64](cfg)
	if err := core.AddDurable("d", ds, store, rec.Stats); err != nil {
		t.Fatal(err)
	}
	return core, ds, rec.Stats
}

func openDurableUnweighted(t *testing.T, dir string, cfg Config) (*Core[float64], Dataset[float64]) {
	t.Helper()
	store, rec, err := persist.Open(dir, persist.Float64Keys(), persist.Options{Kind: persist.KindUnweighted, Sync: persist.SyncAlways})
	if err != nil {
		t.Fatalf("persist.Open: %v", err)
	}
	keys := make([]float64, len(rec.Entries))
	for i, e := range rec.Entries {
		keys[i] = e.Key
	}
	c, err := shard.NewFromSortedSeeded(keys, 4, 7)
	if err != nil {
		t.Fatalf("bulk load: %v", err)
	}
	ds := NewUnweightedDataset(c)
	replay(t, ds, rec.Records)
	core := NewCore[float64](cfg)
	if err := core.AddDurable("d", ds, store, rec.Stats); err != nil {
		t.Fatal(err)
	}
	return core, ds
}

// replay applies recovered WAL records to ds in append order, as irsd's
// streaming boot does record by record.
func replay(t *testing.T, ds Dataset[float64], records []persist.Record[float64]) {
	t.Helper()
	var ra ReplayApplier[float64]
	for _, rec := range records {
		if err := ra.Apply(ds, rec); err != nil {
			t.Fatalf("replay: %v", err)
		}
	}
}

// exportAll collects a dataset's export into one slice.
func exportAll(ds Dataset[float64]) []Item[float64] {
	var items []Item[float64]
	if err := ds.ExportItems(func(block []Item[float64]) error {
		items = append(items, block...)
		return nil
	}); err != nil {
		panic(err)
	}
	return items
}

// exportMultiset renders a dataset's exact logical state as sorted
// "key/weight" strings, the comparison form of the recovery tests.
func exportMultiset(ds Dataset[float64]) []string {
	items := exportAll(ds)
	out := make([]string, len(items))
	for i, it := range items {
		out[i] = fmt.Sprintf("%x/%x", math.Float64bits(it.Key), math.Float64bits(it.Weight))
	}
	sort.Strings(out)
	return out
}

func sameMultiset(t *testing.T, got, want []string, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d items, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: multiset diverges at item %d: %s != %s", label, i, got[i], want[i])
		}
	}
}

// TestDurableUnweightedExactRecovery: inserts (with duplicate keys) and
// deletes through the durable core, crash (the core is abandoned without
// drain or close — SyncAlways means every acknowledged op is already on
// disk), recover, and demand the exact key multiset.
func TestDurableUnweightedExactRecovery(t *testing.T) {
	dir := t.TempDir()
	core, ds := openDurableUnweighted(t, dir, Config{})
	for round := 0; round < 20; round++ {
		items := make([]Item[float64], 0, 64)
		for i := 0; i < 64; i++ {
			items = append(items, Item[float64]{Key: float64((round*31 + i) % 97)}) // duplicates across rounds
		}
		if _, err := core.Insert("d", items); err != nil {
			t.Fatal(err)
		}
		if round%3 == 0 {
			if _, err := core.Delete("d", []float64{float64(round), float64(round + 1), 9999}); err != nil {
				t.Fatal(err)
			}
		}
	}
	want := exportMultiset(ds)
	wantLen := ds.Len()
	// Crash: no drain, no close, no final sync.
	core2, ds2 := openDurableUnweighted(t, dir, Config{})
	defer core2.Close()
	sameMultiset(t, exportMultiset(ds2), want, "recovered unweighted")
	if ds2.Len() != wantLen {
		t.Fatalf("recovered Len %d, want %d", ds2.Len(), wantLen)
	}
}

// TestDurableWeightedSnapshotTailRecovery drives inserts, deletes, and
// weight updates around a mid-stream snapshot: recovery must compose the
// snapshot with the WAL tail into the exact (key, weight) multiset.
func TestDurableWeightedSnapshotTailRecovery(t *testing.T) {
	dir := t.TempDir()
	core, ds, _ := openDurableWeighted(t, dir, Config{})
	insert := func(lo, n int) {
		t.Helper()
		items := make([]Item[float64], n)
		for i := range items {
			items[i] = Item[float64]{Key: float64(lo + i), Weight: 1 + float64(i%7)}
		}
		if _, err := core.Insert("d", items); err != nil {
			t.Fatal(err)
		}
	}
	insert(0, 500)
	if _, err := core.Update("d", []Item[float64]{{Key: 10, Weight: 40}, {Key: 11, Weight: 0}}); err != nil {
		t.Fatal(err)
	}
	info, err := core.Snapshot("d")
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	if info.Items != 500 {
		t.Fatalf("snapshot captured %d items, want 500", info.Items)
	}
	// Tail after the snapshot.
	insert(500, 250)
	if _, err := core.Delete("d", []float64{0, 1, 2}); err != nil {
		t.Fatal(err)
	}
	if n, err := core.Update("d", []Item[float64]{{Key: 600, Weight: 123}}); err != nil || n != 1 {
		t.Fatalf("update: n=%d err=%v", n, err)
	}
	want := exportMultiset(ds)

	core2, ds2, recStats := openDurableWeighted(t, dir, Config{})
	defer core2.Close()
	if recStats.SnapshotSeq == 0 || recStats.SnapshotEntries != 500 {
		t.Fatalf("recovery did not use the snapshot: %+v", recStats)
	}
	if recStats.RecordsReplayed == 0 {
		t.Fatalf("recovery replayed no WAL tail: %+v", recStats)
	}
	sameMultiset(t, exportMultiset(ds2), want, "snapshot+tail")
}

// TestDurableReplayDeterminism recovers one directory twice; the two
// reconstructions must agree exactly.
func TestDurableReplayDeterminism(t *testing.T) {
	dir := t.TempDir()
	core, _, _ := openDurableWeighted(t, dir, Config{})
	rng := xrand.New(3)
	for round := 0; round < 30; round++ {
		items := make([]Item[float64], 40)
		for i := range items {
			items[i] = Item[float64]{Key: rng.Float64Range(0, 1000), Weight: 1 + rng.Float64()}
		}
		if _, err := core.Insert("d", items); err != nil {
			t.Fatal(err)
		}
		if _, err := core.Delete("d", []float64{items[0].Key}); err != nil {
			t.Fatal(err)
		}
	}
	_, dsA, _ := openDurableWeighted(t, dir, Config{})
	_, dsB, _ := openDurableWeighted(t, dir, Config{})
	sameMultiset(t, exportMultiset(dsB), exportMultiset(dsA), "second recovery")
}

// TestDurableChurnCrashRecoveryAcceptance is the acceptance criterion
// end-to-end: >= 10k inserts plus deletes plus weight updates driven
// concurrently through the durable serving core, a crash with no drain
// (every acknowledged op is on disk under SyncAlways — the in-process
// equivalent of SIGKILL, whose process-level form runs in the CI smoke),
// then recovery must (a) reproduce the exact key/weight multiset of the
// live dataset and (b) pass the chi-square suite against a never-crashed
// twin built by replaying the same operation stream.
func TestDurableChurnCrashRecoveryAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical suite skipped with -short")
	}
	dir := t.TempDir()
	core, ds, _ := openDurableWeighted(t, dir, Config{})

	// Churn: 8 writers, each inserting unique keys (updates target unique
	// keys so "update one occurrence" is unambiguous), deleting a slice of
	// its own keys, and re-weighting another slice.
	const writers, perWriter = 8, 1500 // 12k inserts + 8*150 deletes + 8*150 updates
	var wg sync.WaitGroup
	for wID := 0; wID < writers; wID++ {
		wg.Add(1)
		go func(wID int) {
			defer wg.Done()
			base := float64(wID * perWriter)
			for chunk := 0; chunk < perWriter; chunk += 100 {
				items := make([]Item[float64], 100)
				for i := range items {
					items[i] = Item[float64]{Key: base + float64(chunk+i), Weight: 1 + float64((chunk+i)%5)}
				}
				if _, err := core.Insert("d", items); err != nil {
					t.Errorf("insert: %v", err)
					return
				}
			}
			del := make([]float64, 0, perWriter/10)
			upd := make([]Item[float64], 0, perWriter/10)
			for i := 0; i < perWriter; i += 10 {
				del = append(del, base+float64(i))
				upd = append(upd, Item[float64]{Key: base + float64(i+1), Weight: 50})
			}
			if n, err := core.Delete("d", del); err != nil || n != len(del) {
				t.Errorf("delete: n=%d err=%v", n, err)
			}
			if n, err := core.Update("d", upd); err != nil || n != len(upd) {
				t.Errorf("update: n=%d err=%v", n, err)
			}
		}(wID)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	wantMultiset := exportMultiset(ds)
	wantLen := ds.Len()
	if wantLen < 10000 {
		t.Fatalf("churn left %d items, want >= 10000", wantLen)
	}

	// Crash + recover.
	core2, ds2, _ := openDurableWeighted(t, dir, Config{})
	defer core2.Close()
	sameMultiset(t, exportMultiset(ds2), wantMultiset, "post-crash recovery")

	// Never-crashed twin: the same logical state, built directly.
	twinItems := exportAll(ds)
	twin, err := shard.NewWeightedFromItems(twinItems, 4, 99)
	if err != nil {
		t.Fatal(err)
	}

	// Chi-square agreement: bucket samples over key ranges; both the
	// recovered dataset and the twin must match the exact weight-
	// proportional bucket distribution.
	const buckets = 50
	span := float64(writers*perWriter) / buckets
	probs := make([]float64, buckets)
	total := 0.0
	for _, it := range twinItems {
		b := int(it.Key / span)
		if b >= buckets {
			b = buckets - 1
		}
		probs[b] += it.Weight
		total += it.Weight
	}
	for i := range probs {
		probs[i] /= total
	}
	sampleCounts := func(ds Dataset[float64], seed uint64) []int {
		rng := xrand.New(seed)
		counts := make([]int, buckets)
		queries := []shard.Query[float64]{{Lo: 0, Hi: float64(writers * perWriter), T: 60000}}
		res, _, err := ds.SampleManyStatsAppend(nil, nil, queries, nil, rng)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range res {
			b := int(k / span)
			if b >= buckets {
				b = buckets - 1
			}
			counts[b]++
		}
		return counts
	}
	for name, d := range map[string]Dataset[float64]{
		"recovered": ds2,
		"twin":      NewWeightedDataset(twin),
	} {
		gof, err := stats.ChiSquareTest(sampleCounts(d, 1234), probs, persistAlpha)
		if err != nil {
			t.Fatal(err)
		}
		if gof.Reject {
			t.Fatalf("chi-square rejects weight-proportionality on %s: stat=%.2f df=%d critical=%.2f",
				name, gof.Stat, gof.DF, gof.Critical)
		}
	}
}

// TestDurableSnapshotDuringChurn races snapshots against live inserts,
// deletes, updates, and samples (run under -race in CI), then verifies
// the final recovery is exact.
func TestDurableSnapshotDuringChurn(t *testing.T) {
	dir := t.TempDir()
	core, ds, _ := openDurableWeighted(t, dir, Config{})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for wID := 0; wID < 4; wID++ {
		wg.Add(1)
		go func(wID int) {
			defer wg.Done()
			base := float64(wID * 100000)
			i := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				items := []Item[float64]{
					{Key: base + float64(i), Weight: 1},
					{Key: base + float64(i) + 0.5, Weight: 2},
				}
				if _, err := core.Insert("d", items); err != nil {
					t.Errorf("insert: %v", err)
					return
				}
				if i%5 == 0 {
					if _, err := core.Delete("d", []float64{base + float64(i-3)}); err != nil {
						t.Errorf("delete: %v", err)
						return
					}
					if _, err := core.Update("d", []Item[float64]{{Key: base + float64(i) + 0.5, Weight: 9}}); err != nil {
						t.Errorf("update: %v", err)
						return
					}
				}
				if _, err := core.Sample("d", base, base+float64(i)+1, 4); err != nil {
					t.Errorf("sample: %v", err)
					return
				}
				i++
			}
		}(wID)
	}
	for s := 0; s < 8; s++ {
		if _, err := core.Snapshot("d"); err != nil {
			t.Fatalf("snapshot %d: %v", s, err)
		}
	}
	close(stop)
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	want := exportMultiset(ds)

	core2, ds2, recStats := openDurableWeighted(t, dir, Config{})
	defer core2.Close()
	if recStats.SnapshotSeq == 0 {
		t.Fatalf("no snapshot used in recovery: %+v", recStats)
	}
	sameMultiset(t, exportMultiset(ds2), want, "snapshot-during-churn recovery")
}

// TestUpdateOnUnweightedRejected gates the update path.
func TestUpdateOnUnweightedRejected(t *testing.T) {
	dir := t.TempDir()
	core, _ := openDurableUnweighted(t, dir, Config{})
	defer core.Close()
	if _, err := core.Update("d", []Item[float64]{{Key: 1, Weight: 2}}); err != ErrNotWeighted {
		t.Fatalf("update on unweighted: %v", err)
	}
}

// TestSnapshotOnMemoryOnlyRejected gates the snapshot path.
func TestSnapshotOnMemoryOnlyRejected(t *testing.T) {
	core := NewCore[float64](Config{})
	if err := core.Add("m", NewUnweightedDataset(shard.NewSeeded[float64](2, 1))); err != nil {
		t.Fatal(err)
	}
	defer core.Close()
	if _, err := core.Snapshot("m"); err != ErrNotDurable {
		t.Fatalf("snapshot on memory-only: %v", err)
	}
	if _, err := core.Snapshot("nope"); err != ErrUnknownDataset {
		t.Fatalf("snapshot on unknown: %v", err)
	}
}

// TestDurableStatsSurface: /stats carries the durability counters.
func TestDurableStatsSurface(t *testing.T) {
	dir := t.TempDir()
	core, _, _ := openDurableWeighted(t, dir, Config{})
	if _, err := core.Insert("d", []Item[float64]{{Key: 1, Weight: 1}}); err != nil {
		t.Fatal(err)
	}
	if _, err := core.Snapshot("d"); err != nil {
		t.Fatal(err)
	}
	st := core.Stats()
	if len(st.Datasets) != 1 {
		t.Fatalf("stats: %+v", st)
	}
	d := st.Datasets[0]
	if !d.Durable || d.Persist == nil {
		t.Fatalf("durability not surfaced: %+v", d)
	}
	if d.Persist.Records == 0 || d.Persist.Snapshots != 1 || d.Persist.LastSnapshotSeq == 0 {
		t.Fatalf("persist counters: %+v", d.Persist)
	}
	core.Close()
	// A second boot surfaces recovery stats.
	core2, _, recStats := openDurableWeighted(t, dir, Config{})
	defer core2.Close()
	if recStats.SnapshotEntries != 1 {
		t.Fatalf("recovery stats: %+v", recStats)
	}
	d2 := core2.Stats().Datasets[0]
	if d2.Persist.Recovery.SnapshotEntries != 1 {
		t.Fatalf("recovery stats not surfaced: %+v", d2.Persist)
	}
}

// TestDurableEmptyDeleteWritesNothing: an empty delete is answered inline,
// as empty inserts and updates are, so it neither stages a WAL record nor
// waits on an fsync.
func TestDurableEmptyDeleteWritesNothing(t *testing.T) {
	core, _ := openDurableUnweighted(t, t.TempDir(), Config{})
	defer core.Close()
	for i := 0; i < 5; i++ {
		if n, err := core.Delete("d", nil); err != nil || n != 0 {
			t.Fatalf("empty delete: n=%d err=%v", n, err)
		}
	}
	d := core.Stats().Datasets[0]
	if d.Persist.Records != 0 || d.Persist.Syncs != 0 {
		t.Fatalf("empty deletes reached the WAL: records=%d syncs=%d", d.Persist.Records, d.Persist.Syncs)
	}
	if d.DeleteRequests != 5 {
		t.Fatalf("delete requests = %d, want 5", d.DeleteRequests)
	}
}
