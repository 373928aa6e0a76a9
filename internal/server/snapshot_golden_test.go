package server

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"github.com/irsgo/irs/internal/persist"
	"github.com/irsgo/irs/internal/shard"
)

// goldenItems is the fixed dataset the golden snapshots hold: 1500 keys in
// runs of three duplicates across four shards, so the export crosses shard,
// group and chunk boundaries and equal keys; weights cycle through
// 0, 1.5, 3, 4.5, 6 (unweighted datasets store unit weights instead).
func goldenItems() []Item[float64] {
	items := make([]Item[float64], 1500)
	for i := range items {
		items[i] = Item[float64]{Key: float64(i-i%3)*0.25 - 100, Weight: float64(i%5) * 1.5}
	}
	return items
}

// goldenDataset builds goldenItems as a dataset of the given kind.
func goldenDataset(t testing.TB, kind uint8) Dataset[float64] {
	t.Helper()
	items := goldenItems()
	if kind == persist.KindWeighted {
		w, err := shard.NewWeightedFromSortedItems(items, 4, 7)
		if err != nil {
			t.Fatal(err)
		}
		return NewWeightedDataset(w)
	}
	keys := make([]float64, len(items))
	for i, it := range items {
		keys[i] = it.Key
	}
	u, err := shard.NewFromSortedSeeded(keys, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	return NewUnweightedDataset(u)
}

// writeGoldenSnapshot takes the first snapshot of goldenDataset(kind) in a
// fresh store under dir and returns the snapshot file's path.
func writeGoldenSnapshot(t testing.TB, dir string, kind uint8) string {
	t.Helper()
	store, rec, err := persist.Open(dir, persist.Float64Keys(), persist.Options{Kind: kind})
	if err != nil {
		t.Fatal(err)
	}
	core := NewCore[float64](Config{})
	defer core.Close()
	if err := core.AddDurable("d", goldenDataset(t, kind), store, rec.Stats); err != nil {
		t.Fatal(err)
	}
	info, err := core.Snapshot("d")
	if err != nil {
		t.Fatal(err)
	}
	if info.Seq != 1 {
		t.Fatalf("first snapshot covers %d, want 1", info.Seq)
	}
	return filepath.Join(dir, "snap-0000000000000001.snap")
}

var goldenKinds = []struct {
	name string
	kind uint8
}{
	{"unweighted", persist.KindUnweighted},
	{"weighted", persist.KindWeighted},
}

// TestSnapshotGolden pins the snapshot file format: the file a snapshot of
// goldenDataset writes is byte-identical to testdata/<kind>.snap, which an
// earlier writer (one that exported the dataset into a slice before
// encoding it) produced from the same dataset. The golden files must also
// recover to exactly goldenItems, so files written before the streaming
// export still load.
func TestSnapshotGolden(t *testing.T) {
	for _, tc := range goldenKinds {
		t.Run(tc.name, func(t *testing.T) {
			golden := filepath.Join("testdata", tc.name+".snap")
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(writeGoldenSnapshot(t, t.TempDir(), tc.kind))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("snapshot differs from %s: %d bytes vs %d", golden, len(got), len(want))
			}

			// Recover the golden file through the boot path.
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, "snap-0000000000000001.snap"), want, 0o644); err != nil {
				t.Fatal(err)
			}
			store, rec, err := persist.Open(dir, persist.Float64Keys(), persist.Options{Kind: tc.kind})
			if err != nil {
				t.Fatal(err)
			}
			defer store.Close()
			items := goldenItems()
			if rec.Stats.SnapshotSeq != 1 || len(rec.Entries) != len(items) {
				t.Fatalf("recovered seq %d with %d entries, want 1 and %d",
					rec.Stats.SnapshotSeq, len(rec.Entries), len(items))
			}
			for i, e := range rec.Entries {
				w := items[i]
				if tc.kind == persist.KindUnweighted {
					w.Weight = 1
				}
				if e != w {
					t.Fatalf("entry %d = %+v, want %+v", i, e, w)
				}
			}
		})
	}
}
