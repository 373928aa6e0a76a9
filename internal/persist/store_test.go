package persist

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func openTestStore(t *testing.T, dir string, kind uint8) (*Store[float64], *Recovery[float64]) {
	t.Helper()
	st, rec, err := Open(dir, Float64Keys(), Options{Kind: kind, Sync: SyncAlways})
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return st, rec
}

// reopen simulates a crash: the old store is abandoned (never closed) and
// the directory recovered fresh.
func reopen(t *testing.T, dir string, kind uint8) (*Store[float64], *Recovery[float64]) {
	t.Helper()
	return openTestStore(t, dir, kind)
}

func TestStoreEmptyDirRecoversEmpty(t *testing.T) {
	st, rec := openTestStore(t, t.TempDir(), KindUnweighted)
	defer st.Close()
	if len(rec.Entries) != 0 || len(rec.Records) != 0 {
		t.Fatalf("fresh dir recovered state: %+v", rec)
	}
	if rec.Stats.SnapshotSeq != 0 || rec.Stats.TornTail {
		t.Fatalf("fresh dir stats: %+v", rec.Stats)
	}
}

func TestStoreWALTailRecovery(t *testing.T) {
	dir := t.TempDir()
	st, _ := openTestStore(t, dir, KindWeighted)
	if err := write(st, st.StageInsert, mkEntries([]float64{1, 2, 3}, []float64{1, 1, 2})); err != nil {
		t.Fatal(err)
	}
	if err := write(st, st.StageDelete, mkEntries([]float64{2}, nil)); err != nil {
		t.Fatal(err)
	}
	if err := write(st, st.StageUpdate, mkEntries([]float64{3}, []float64{9})); err != nil {
		t.Fatal(err)
	}
	// Crash: never closed.
	st2, rec := reopen(t, dir, KindWeighted)
	defer st2.Close()
	if len(rec.Entries) != 0 {
		t.Fatalf("no snapshot was taken, yet recovered %d snapshot entries", len(rec.Entries))
	}
	ops := make([]Op, 0, 3)
	for _, r := range rec.Records {
		ops = append(ops, r.Op)
	}
	want := []Op{OpInsert, OpDelete, OpUpdate}
	if len(ops) != len(want) {
		t.Fatalf("replayed ops %v, want %v", ops, want)
	}
	for i := range want {
		if ops[i] != want[i] {
			t.Fatalf("replayed ops %v, want %v", ops, want)
		}
	}
	if rec.Records[0].Entries[2].Weight != 2 || rec.Records[2].Entries[0].Weight != 9 {
		t.Fatalf("weights lost in replay: %+v", rec.Records)
	}
	if rec.Stats.TornTail {
		t.Fatal("clean log reported a torn tail")
	}
}

// TestStoreReplayDeterminism recovers the same directory twice and demands
// bit-identical record streams.
func TestStoreReplayDeterminism(t *testing.T) {
	dir := t.TempDir()
	st, _ := openTestStore(t, dir, KindUnweighted)
	for i := 0; i < 50; i++ {
		if err := write(st, st.StageInsert, mkEntries([]float64{float64(i), float64(i) / 3}, []float64{1, 1})); err != nil {
			t.Fatal(err)
		}
		if i%3 == 0 {
			if err := write(st, st.StageDelete, mkEntries([]float64{float64(i - 1)}, nil)); err != nil {
				t.Fatal(err)
			}
		}
	}
	st2, rec1 := reopen(t, dir, KindUnweighted)
	st2.Close()
	st3, rec2 := reopen(t, dir, KindUnweighted)
	st3.Close()
	if len(rec1.Records) != len(rec2.Records) {
		t.Fatalf("replay lengths differ: %d vs %d", len(rec1.Records), len(rec2.Records))
	}
	for i := range rec1.Records {
		a, b := rec1.Records[i], rec2.Records[i]
		if a.Op != b.Op || len(a.Entries) != len(b.Entries) {
			t.Fatalf("record %d differs: %+v vs %+v", i, a, b)
		}
		for j := range a.Entries {
			if a.Entries[j] != b.Entries[j] {
				t.Fatalf("record %d entry %d differs", i, j)
			}
		}
	}
}

func TestStoreSnapshotAndCompaction(t *testing.T) {
	dir := t.TempDir()
	st, _ := openTestStore(t, dir, KindUnweighted)
	if err := write(st, st.StageInsert, mkEntries([]float64{1, 2}, []float64{1, 1})); err != nil {
		t.Fatal(err)
	}
	seq, commit, err := st.BeginSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if seq != 1 {
		t.Fatalf("first snapshot covers segment %d, want 1", seq)
	}
	// State as of the rotation: keys 1 and 2.
	if err := commit(exportEntries(mkEntries([]float64{1, 2}, []float64{1, 1}))); err != nil {
		t.Fatal(err)
	}
	// Post-snapshot tail.
	if err := write(st, st.StageInsert, mkEntries([]float64{3}, []float64{1})); err != nil {
		t.Fatal(err)
	}

	// The covered segment must be gone (compaction).
	if _, err := os.Stat(filepath.Join(dir, segmentName(1))); !os.IsNotExist(err) {
		t.Fatalf("segment 1 not purged after snapshot: %v", err)
	}
	stats := st.Stats()
	if stats.Snapshots != 1 || stats.LastSnapshotSeq != 1 || stats.ActiveSegment != 2 {
		t.Fatalf("stats after snapshot: %+v", stats)
	}

	st2, rec := reopen(t, dir, KindUnweighted)
	defer st2.Close()
	if got := keysOf(rec.Entries); !sameKeys(got, []float64{1, 2}) {
		t.Fatalf("snapshot entries %v, want [1 2]", got)
	}
	if len(rec.Records) != 1 || rec.Records[0].Op != OpInsert || rec.Records[0].Entries[0].Key != 3 {
		t.Fatalf("tail records %+v, want the single post-snapshot insert", rec.Records)
	}
	if rec.Stats.SnapshotSeq != 1 || rec.Stats.SnapshotEntries != 2 {
		t.Fatalf("recovery stats %+v", rec.Stats)
	}
	// Second snapshot replaces the first snapshot file.
	seq2, commit2, err := st2.BeginSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := commit2(exportEntries(mkEntries([]float64{1, 2, 3}, []float64{1, 1, 1}))); err != nil {
		t.Fatal(err)
	}
	if seq2 != 2 {
		t.Fatalf("second snapshot covers %d, want 2", seq2)
	}
	if _, err := os.Stat(filepath.Join(dir, snapshotName(1))); !os.IsNotExist(err) {
		t.Fatal("old snapshot not purged")
	}
}

// TestStoreTornTail truncates the final record at every byte boundary and
// demands: no panic, no error, exactly the untruncated prefix records, and
// TornTail reported whenever bytes were dropped mid-frame.
func TestStoreTornTail(t *testing.T) {
	dir := t.TempDir()
	st, _ := openTestStore(t, dir, KindUnweighted)
	for i := 0; i < 3; i++ {
		if err := write(st, st.StageInsert, mkEntries([]float64{float64(i)}, []float64{1})); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()
	seg := filepath.Join(dir, segmentName(1))
	full, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	frameLen := len(full) / 3
	if len(full)%3 != 0 {
		t.Fatalf("unexpected segment layout: %d bytes for 3 equal records", len(full))
	}

	for cut := len(full) - 1; cut > len(full)-frameLen; cut-- {
		scratch := t.TempDir()
		if err := os.WriteFile(filepath.Join(scratch, segmentName(1)), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		st2, rec := openTestStore(t, scratch, KindUnweighted)
		if len(rec.Records) != 2 {
			t.Fatalf("cut=%d: recovered %d records, want 2", cut, len(rec.Records))
		}
		if !rec.Stats.TornTail {
			t.Fatalf("cut=%d: torn tail not reported", cut)
		}
		// The torn bytes must be truncated away: appending must produce a
		// log that replays cleanly.
		if err := write(st2, st2.StageInsert, mkEntries([]float64{99}, []float64{1})); err != nil {
			t.Fatal(err)
		}
		st3, rec3 := reopen(t, scratch, KindUnweighted)
		st3.Close()
		if len(rec3.Records) != 3 || rec3.Stats.TornTail {
			t.Fatalf("cut=%d: after append-over-torn-tail recovered %d records (torn=%v), want 3 clean",
				cut, len(rec3.Records), rec3.Stats.TornTail)
		}
		if rec3.Records[2].Entries[0].Key != 99 {
			t.Fatalf("cut=%d: appended record lost", cut)
		}
	}
}

// TestStoreCorruptMiddleFrame flips a byte in the middle of a record that
// has successors: replay must stop there and report a torn tail (single
// segment), and recovery must never invent records past the corruption.
func TestStoreCorruptMiddleFrame(t *testing.T) {
	dir := t.TempDir()
	st, _ := openTestStore(t, dir, KindUnweighted)
	for i := 0; i < 4; i++ {
		if err := write(st, st.StageInsert, mkEntries([]float64{float64(i)}, []float64{1})); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()
	seg := filepath.Join(dir, segmentName(1))
	raw, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(seg, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	st2, rec := openTestStore(t, dir, KindUnweighted)
	defer st2.Close()
	if len(rec.Records) >= 4 {
		t.Fatalf("recovered %d records across a corrupt frame", len(rec.Records))
	}
	if !rec.Stats.TornTail {
		t.Fatal("corruption not reported")
	}
}

func TestStoreKindMismatchRejected(t *testing.T) {
	dir := t.TempDir()
	st, _ := openTestStore(t, dir, KindWeighted)
	seq, commit, err := st.BeginSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	_ = seq
	if err := commit(exportEntries(mkEntries([]float64{1}, []float64{2}))); err != nil {
		t.Fatal(err)
	}
	st.Close()
	if _, _, err := Open(dir, Float64Keys(), Options{Kind: KindUnweighted}); err == nil ||
		!strings.Contains(err.Error(), "weighted") {
		t.Fatalf("kind mismatch not rejected: %v", err)
	}
}

// TestStoreKindMismatchRejectedWALOnly: the kind pin must hold even before
// any snapshot exists (the marker file, not the snapshot header, carries
// it for WAL-only directories).
func TestStoreKindMismatchRejectedWALOnly(t *testing.T) {
	dir := t.TempDir()
	st, _ := openTestStore(t, dir, KindUnweighted)
	if err := write(st, st.StageInsert, mkEntries([]float64{1}, []float64{1})); err != nil {
		t.Fatal(err)
	}
	st.Close()
	if _, _, err := Open(dir, Float64Keys(), Options{Kind: KindWeighted}); err == nil ||
		!strings.Contains(err.Error(), "unweighted") {
		t.Fatalf("WAL-only kind mismatch not rejected: %v", err)
	}
	// Same kind still opens.
	st2, rec := openTestStore(t, dir, KindUnweighted)
	defer st2.Close()
	if len(rec.Records) != 1 {
		t.Fatalf("recovered %d records, want 1", len(rec.Records))
	}
}

func TestStoreClosedErrors(t *testing.T) {
	st, _ := openTestStore(t, t.TempDir(), KindUnweighted)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if err := write(st, st.StageInsert, mkEntries([]float64{1}, []float64{1})); !errors.Is(err, ErrClosed) {
		t.Fatalf("append on closed store: %v", err)
	}
	if _, _, err := st.BeginSnapshot(); !errors.Is(err, ErrClosed) {
		t.Fatalf("snapshot on closed store: %v", err)
	}
	if err := st.Sync(); !errors.Is(err, ErrClosed) {
		t.Fatalf("sync on closed store: %v", err)
	}
}

// TestStoreInterruptedSnapshotTmpIgnored plants a stale .tmp file; Open
// must discard it and recover from the durable state.
func TestStoreInterruptedSnapshotTmpIgnored(t *testing.T) {
	dir := t.TempDir()
	st, _ := openTestStore(t, dir, KindUnweighted)
	if err := write(st, st.StageInsert, mkEntries([]float64{5}, []float64{1})); err != nil {
		t.Fatal(err)
	}
	st.Close()
	tmp := filepath.Join(dir, snapshotName(9)+".tmp")
	if err := os.WriteFile(tmp, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	st2, rec := openTestStore(t, dir, KindUnweighted)
	defer st2.Close()
	if len(rec.Records) != 1 {
		t.Fatalf("recovered %d records, want 1", len(rec.Records))
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatal("stale .tmp not removed")
	}
}

// write stages one record through stage (the store's StageInsert,
// StageDelete, or StageUpdate) and waits for its covering fsync — the
// (stage, WaitDurable) pair the serving layer commits every batch with.
func write(st *Store[float64], stage func([]Entry[float64]) (Ticket, error), entries []Entry[float64]) error {
	t, err := stage(entries)
	if err != nil {
		return err
	}
	return st.WaitDurable(t)
}

func keysOf(entries []Entry[float64]) []float64 {
	out := make([]float64, len(entries))
	for i, e := range entries {
		out[i] = e.Key
	}
	return out
}

func sameKeys(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
