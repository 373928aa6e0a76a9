package persist

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// hookFile wraps a real segment file with an injectable Sync, the fault
// seam Options.OpenFile exists for: the hook runs before the real fsync
// and its error (if any) replaces it.
type hookFile struct {
	File
	syncHook func() error
}

func (h *hookFile) Sync() error {
	if h.syncHook != nil {
		if err := h.syncHook(); err != nil {
			return err
		}
	}
	return h.File.Sync()
}

// openHooked opens a SyncAlways store whose WAL segments run syncHook
// before every fsync.
func openHooked(t *testing.T, dir string, syncHook func() error) *Store[float64] {
	t.Helper()
	st, _, err := Open(dir, Float64Keys(), Options{
		Kind: KindUnweighted,
		Sync: SyncAlways,
		OpenFile: func(path string) (File, error) {
			f, err := defaultOpenFile(path)
			if err != nil {
				return nil, err
			}
			return &hookFile{File: f, syncHook: syncHook}, nil
		},
	})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return st
}

// TestGroupCommitHammer drives concurrent stagers through the committer
// under -race and then checks the two ordering guarantees the serving
// layer builds on: every acknowledged record survives a crash (the store
// is abandoned un-closed, so only completed fsyncs can explain the
// recovered bytes), and each stager's records appear in the log in its
// own staging order.
func TestGroupCommitHammer(t *testing.T) {
	dir := t.TempDir()
	st, _ := openTestStore(t, dir, KindUnweighted)
	const writers, perWriter = 8, 50
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				tk, err := st.StageInsert(mkEntries([]float64{float64(g*1000 + i)}, []float64{1}))
				if err != nil {
					t.Errorf("writer %d: stage: %v", g, err)
					return
				}
				if err := st.WaitDurable(tk); err != nil {
					t.Errorf("writer %d: wait: %v", g, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	// Crash: the store is abandoned, never closed. Everything above was
	// acknowledged, so everything above must recover.
	st2, rec := reopen(t, dir, KindUnweighted)
	defer st2.Close()
	if got := len(rec.Records); got != writers*perWriter {
		t.Fatalf("recovered %d records, want %d (an ACK preceded its fsync)", got, writers*perWriter)
	}
	next := make([]int, writers)
	for i, r := range rec.Records {
		key := int(r.Entries[0].Key)
		g, seq := key/1000, key%1000
		if seq != next[g] {
			t.Fatalf("record %d: writer %d's record %d out of order (expected %d): staging order not log order", i, g, seq, next[g])
		}
		next[g]++
	}
}

// TestGroupCommitNoAckBeforeFsync gates the segment's fsync shut and
// proves WaitDurable cannot return until the covering fsync completes.
func TestGroupCommitNoAckBeforeFsync(t *testing.T) {
	gate := make(chan struct{})
	st := openHooked(t, t.TempDir(), func() error { <-gate; return nil })
	defer st.Close()

	tk, err := st.StageInsert(mkEntries([]float64{1}, []float64{1}))
	if err != nil {
		t.Fatal(err)
	}
	acked := make(chan error, 1)
	go func() { acked <- st.WaitDurable(tk) }()
	select {
	case err := <-acked:
		t.Fatalf("acknowledged (err=%v) while the fsync was gated shut", err)
	case <-time.After(100 * time.Millisecond):
	}
	close(gate)
	select {
	case err := <-acked:
		if err != nil {
			t.Fatalf("WaitDurable after fsync: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("WaitDurable never returned after the fsync was released")
	}
	if st.Stats().Syncs == 0 {
		t.Fatal("no fsync recorded for the acknowledged record")
	}
}

// TestGroupCommitStickyFsyncError injects a failing fsync under
// SyncAlways: the waiter gets the error, and the store fails sticky —
// later stages fail fast and Stats surfaces the error string.
func TestGroupCommitStickyFsyncError(t *testing.T) {
	errBoom := errors.New("injected fsync failure")
	var failNow atomic.Bool
	st := openHooked(t, t.TempDir(), func() error {
		if failNow.Load() {
			return errBoom
		}
		return nil
	})
	defer st.Close()

	// A record fsynced before the fault stays acknowledged.
	tk1, err := st.StageInsert(mkEntries([]float64{1}, []float64{1}))
	if err != nil {
		t.Fatal(err)
	}
	if err := st.WaitDurable(tk1); err != nil {
		t.Fatalf("healthy wait: %v", err)
	}

	failNow.Store(true)
	tk2, err := st.StageInsert(mkEntries([]float64{2}, []float64{1}))
	if err != nil {
		t.Fatal(err)
	}
	if err := st.WaitDurable(tk2); !errors.Is(err, errBoom) {
		t.Fatalf("wait across failed fsync: %v, want the injected error", err)
	}
	// Sticky: everything afterwards fails fast with the original error.
	if _, err := st.StageInsert(mkEntries([]float64{3}, []float64{1})); !errors.Is(err, errBoom) {
		t.Fatalf("stage after failure: %v, want sticky error", err)
	}
	if err := st.Sync(); !errors.Is(err, errBoom) {
		t.Fatalf("sync after failure: %v, want sticky error", err)
	}
	if _, _, err := st.BeginSnapshot(); !errors.Is(err, errBoom) {
		t.Fatalf("snapshot after failure: %v, want sticky error", err)
	}
	if got := st.Stats().SyncError; got == "" {
		t.Fatal("sticky failure not surfaced in Stats")
	}
	// The pre-failure record still acknowledges as durable.
	if err := st.WaitDurable(tk1); err != nil {
		t.Fatalf("pre-failure ticket re-acknowledged with %v, want nil", err)
	}
}

// TestSyncIntervalStickyFsyncError is the satellite bugfix pinned: under
// SyncInterval a failing background fsync used to be silently dropped.
// It must now fail the store — subsequent appends error and Stats
// surfaces it.
func TestSyncIntervalStickyFsyncError(t *testing.T) {
	errBoom := errors.New("injected interval fsync failure")
	st, _, err := Open(t.TempDir(), Float64Keys(), Options{
		Kind:         KindUnweighted,
		Sync:         SyncInterval,
		SyncInterval: time.Millisecond,
		OpenFile: func(path string) (File, error) {
			f, err := defaultOpenFile(path)
			if err != nil {
				return nil, err
			}
			return &hookFile{File: f, syncHook: func() error { return errBoom }}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := write(st, st.StageInsert, mkEntries([]float64{1}, []float64{1})); err != nil {
		t.Fatalf("append before the background sync ran: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for st.Err() == nil {
		if time.Now().After(deadline) {
			t.Fatal("background fsync failure never became sticky")
		}
		time.Sleep(time.Millisecond)
	}
	if err := st.Err(); !errors.Is(err, errBoom) {
		t.Fatalf("sticky error %v, want the injected failure", err)
	}
	if err := write(st, st.StageInsert, mkEntries([]float64{2}, []float64{1})); !errors.Is(err, errBoom) {
		t.Fatalf("append after failure: %v, want sticky error", err)
	}
	if st.Stats().SyncError == "" {
		t.Fatal("sticky failure not surfaced in Stats")
	}
}

// TestOpenStreamMatchesOpen recovers one directory both ways — streaming
// sink and materializing wrapper — and demands identical state: the
// equivalence the irsd boot path (OpenStream) rests on.
func TestOpenStreamMatchesOpen(t *testing.T) {
	dir := t.TempDir()
	st, _ := openTestStore(t, dir, KindWeighted)
	if err := write(st, st.StageInsert, mkEntries([]float64{1, 2, 3}, []float64{1, 2, 3})); err != nil {
		t.Fatal(err)
	}
	if _, commit, err := st.BeginSnapshot(); err != nil {
		t.Fatal(err)
	} else if err := commit(exportEntries(mkEntries([]float64{1, 2, 3}, []float64{1, 2, 3}))); err != nil {
		t.Fatal(err)
	}
	if err := write(st, st.StageDelete, mkEntries([]float64{2}, nil)); err != nil {
		t.Fatal(err)
	}
	if err := write(st, st.StageUpdate, mkEntries([]float64{3}, []float64{9})); err != nil {
		t.Fatal(err)
	}
	st.Close()

	stA, recA := reopen(t, dir, KindWeighted)
	stA.Close()

	var streamed Recovery[float64]
	stB, stats, err := OpenStream(dir, Float64Keys(), Options{Kind: KindWeighted}, RecoverySink[float64]{
		SnapshotStart: func(count int) error {
			streamed.Entries = make([]Entry[float64], 0, count)
			return nil
		},
		SnapshotEntry: func(e Entry[float64]) error {
			streamed.Entries = append(streamed.Entries, e)
			return nil
		},
		Record: func(r Record[float64]) error {
			r.Entries = append([]Entry[float64](nil), r.Entries...)
			streamed.Records = append(streamed.Records, r)
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	stB.Close()

	if stats != recA.Stats {
		t.Fatalf("recovery stats diverge: %+v vs %+v", stats, recA.Stats)
	}
	if len(streamed.Entries) != len(recA.Entries) {
		t.Fatalf("snapshot entries: %d vs %d", len(streamed.Entries), len(recA.Entries))
	}
	for i := range streamed.Entries {
		if streamed.Entries[i] != recA.Entries[i] {
			t.Fatalf("snapshot entry %d diverges", i)
		}
	}
	if len(streamed.Records) != len(recA.Records) {
		t.Fatalf("tail records: %d vs %d", len(streamed.Records), len(recA.Records))
	}
	for i := range streamed.Records {
		a, b := streamed.Records[i], recA.Records[i]
		if a.Op != b.Op || len(a.Entries) != len(b.Entries) {
			t.Fatalf("record %d diverges: %+v vs %+v", i, a, b)
		}
		for j := range a.Entries {
			if a.Entries[j] != b.Entries[j] {
				t.Fatalf("record %d entry %d diverges", i, j)
			}
		}
	}
}
