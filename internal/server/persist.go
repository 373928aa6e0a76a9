package server

import (
	"cmp"
	"errors"
	"time"

	"github.com/irsgo/irs/internal/persist"
)

// Durability: a dataset registered with AddDurable carries a
// persist.Store. Every mutating path stages a WAL record inside the same
// coalesced flush that applies the mutation, holding the dataset's log
// mutex across (stage, apply) so the WAL's record order equals the
// in-memory apply order — the property that makes replay reconstruct the
// exact key/weight multiset. The fsync wait (store.WaitDurable) runs
// after the log mutex is released: under SyncAlways the store's committer
// amortizes one fsync across every batch staged since the previous flush
// — across concurrent flushers — and each request is acknowledged only
// once its covering fsync lands, so acknowledged-means-durable holds
// while throughput scales with offered load instead of fsync latency.
//
// Snapshots (Core.Snapshot) rotate the WAL and export the dataset under
// the same log mutex — a brief write pause, sampling unaffected — then
// serialize and compact outside the lock. Recovery (persist.Open + Replay)
// loads the newest snapshot and replays the WAL tail in order.

// Typed errors of the durability paths.
var (
	// ErrNotWeighted: a weight-update was addressed to an unweighted
	// dataset.
	ErrNotWeighted = errors.New("server: dataset is not weighted")
	// ErrNotDurable: a snapshot was requested for a dataset that has no
	// persistence attached.
	ErrNotDurable = errors.New("server: dataset has no persistence attached")
)

// AddDurable registers ds like Add and attaches its persistence store:
// subsequent inserts, deletes, and weight updates are written ahead to the
// store's WAL, and Snapshot(name) becomes available. recovered is the
// recovery outcome Open reported for the store's directory (zero if the
// caller built the dataset fresh); it is surfaced verbatim in Stats.
func (c *Core[K]) AddDurable(name string, ds Dataset[K], store *persist.Store[K], recovered persist.RecoveryStats) error {
	if store == nil {
		return ErrNotDurable
	}
	return c.add(name, ds, store, recovered)
}

// Update sets the weight of one occurrence of each item's key on a
// weighted dataset, returning how many keys were present. Weights are
// validated before admission; unweighted datasets reject with
// ErrNotWeighted. Like deletes, updates go straight to the backend (the
// request body is already a batch) under the dataset's durability order.
func (c *Core[K]) Update(name string, items []Item[K]) (int, error) {
	st, err := c.lookup(name)
	if err != nil {
		return 0, err
	}
	if !st.ds.Weighted() {
		return 0, ErrNotWeighted
	}
	if err := validItems(items, true); err != nil {
		return 0, err
	}
	st.counters.updateRequests.Add(1)
	if len(items) == 0 {
		return 0, nil
	}
	n, err := st.applyUpdate(items)
	if err != nil {
		return 0, st.dropErr(err)
	}
	st.counters.keysUpdated.Add(uint64(n))
	return n, nil
}

// applyUpdate applies one weight-update batch, write-ahead logged on
// durable datasets.
func (st *dsState[K]) applyUpdate(items []Item[K]) (int, error) {
	if st.store == nil {
		return st.ds.UpdateWeights(items), nil
	}
	sp := st.getEntries()
	defer st.putEntries(sp)
	*sp = appendEntries(*sp, items)
	return st.commit(st.store.StageUpdate, *sp, func() (int, error) { return st.ds.UpdateWeights(items), nil })
}

// SnapshotInfo reports one committed snapshot.
type SnapshotInfo struct {
	Seq   uint64 `json:"seq"`   // WAL sequence the snapshot covers
	Items int    `json:"items"` // items serialized
}

// Snapshot takes a point-in-time snapshot of the named durable dataset
// and compacts the WAL segments it covers. The WAL rotation and the state
// export happen under the dataset's log mutex — a brief write pause during
// the O(n) export; sampling proceeds throughout — while serialization and
// compaction run outside it. Concurrent Snapshot calls for one dataset
// serialize.
func (c *Core[K]) Snapshot(name string) (SnapshotInfo, error) {
	st, err := c.lookup(name)
	if err != nil {
		return SnapshotInfo{}, err
	}
	if st.store == nil {
		return SnapshotInfo{}, ErrNotDurable
	}
	info, err := st.snapshotNow()
	return info, st.dropErr(err)
}

// snapshotNow runs the full snapshot protocol on one durable dataset's
// state. It is the shared body of Core.Snapshot and Remove's final
// snapshot — the latter runs on an already-unpublished dataset, which is
// exactly why the protocol lives on dsState rather than the registry.
func (st *dsState[K]) snapshotNow() (SnapshotInfo, error) {
	st.snapMu.Lock()
	defer st.snapMu.Unlock()
	start := time.Now()

	st.logMu.Lock()
	seq, commit, err := st.store.BeginSnapshot()
	if err != nil {
		st.logMu.Unlock()
		return SnapshotInfo{}, logErr(err)
	}
	items := st.ds.ExportItems(nil)
	st.logMu.Unlock()

	// The export is last used here, so it is garbage — not a third live
	// copy of the dataset — while commit serializes the entries.
	n := len(items)
	entries := appendEntries(make([]persist.Entry[K], 0, n), items)
	if err := commit(entries); err != nil {
		return SnapshotInfo{}, err
	}
	st.counters.snapshotSeconds.Observe(time.Since(start))
	return SnapshotInfo{Seq: seq, Items: n}, nil
}

// ReplayApplier applies recovered WAL records to a Dataset one at a time,
// reusing its conversion buffers across records — the streaming spelling
// of Replay, fed directly from persist.OpenStream's record callback so a
// long WAL tail replays without per-record allocation. The zero value is
// ready to use; an applier serves one recovery at a time.
type ReplayApplier[K cmp.Ordered] struct {
	items []Item[K]
	keys  []K
}

// Apply applies one recovered record. Weight updates are skipped on
// unweighted datasets (they cannot be logged there either). rec.Entries is
// only read during the call, so persist's reused decode buffers are safe
// to pass through.
func (ra *ReplayApplier[K]) Apply(ds Dataset[K], rec persist.Record[K]) error {
	switch rec.Op {
	case persist.OpInsert:
		ra.items = ra.items[:0]
		for _, e := range rec.Entries {
			ra.items = append(ra.items, Item[K]{Key: e.Key, Weight: e.Weight})
		}
		return ds.InsertItems(ra.items)
	case persist.OpDelete:
		ra.keys = ra.keys[:0]
		for _, e := range rec.Entries {
			ra.keys = append(ra.keys, e.Key)
		}
		ds.DeleteKeys(ra.keys)
	case persist.OpUpdate:
		if !ds.Weighted() {
			return nil
		}
		ra.items = ra.items[:0]
		for _, e := range rec.Entries {
			ra.items = append(ra.items, Item[K]{Key: e.Key, Weight: e.Weight})
		}
		ds.UpdateWeights(ra.items)
	}
	return nil
}

// Replay applies recovered WAL records to ds in append order. The caller
// has already loaded the snapshot entries (typically through a bulk-load
// constructor); Replay finishes the reconstruction.
func Replay[K cmp.Ordered](ds Dataset[K], records []persist.Record[K]) error {
	var ra ReplayApplier[K]
	for _, rec := range records {
		if err := ra.Apply(ds, rec); err != nil {
			return err
		}
	}
	return nil
}

// appendEntries converts serving items to persistence entries, appending
// to dst — the allocation-free spelling every durable path encodes
// through.
func appendEntries[K cmp.Ordered](dst []persist.Entry[K], items []Item[K]) []persist.Entry[K] {
	for _, it := range items {
		dst = append(dst, persist.Entry[K]{Key: it.Key, Weight: it.Weight})
	}
	return dst
}
