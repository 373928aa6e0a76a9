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
// Snapshots (Core.Snapshot) rotate the WAL and stream the dataset from the
// shards into the snapshot file under the same log mutex — a write pause
// for the encode, sampling unaffected — then fsync, rename and compact
// outside the lock. Recovery (persist.OpenStream feeding a ReplayApplier)
// loads the newest snapshot and replays the WAL tail in order. Items and
// WAL entries are one type (weighted.Item), so every path stages its batch
// as-is and a snapshot encodes the engine's blocks without a copy of the
// dataset.

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
	return st.commit(st.store.StageUpdate, items, func() (int, error) { return st.ds.UpdateWeights(items), nil })
}

// SnapshotInfo reports one committed snapshot.
type SnapshotInfo struct {
	Seq   uint64 `json:"seq"`   // WAL sequence the snapshot covers
	Items int    `json:"items"` // items serialized
}

// Snapshot takes a point-in-time snapshot of the named durable dataset
// and compacts the WAL segments it covers. The WAL rotation and the state
// export happen under the dataset's log mutex: writers pause while the
// export streams every item into the snapshot file's write buffer (an O(n)
// encode and page-cache write, with no copy of the dataset in the heap);
// sampling proceeds throughout. The fsync, the rename and the compaction
// run after the pause. Concurrent Snapshot calls for one dataset
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

	// The write pause: from the WAL rotation until the export has streamed
	// the whole dataset into the snapshot file. resume ends it exactly
	// once, whichever way commit returns.
	st.logMu.Lock()
	paused := true
	resume := func() {
		if paused {
			paused = false
			st.logMu.Unlock()
		}
	}
	defer resume()
	seq, commit, err := st.store.BeginSnapshot()
	if err != nil {
		return SnapshotInfo{}, logErr(err)
	}
	n := st.ds.Len()
	err = commit(n, func(emit func(block []Item[K]) error) error {
		defer resume()
		return st.ds.ExportItems(emit)
	})
	if err != nil {
		return SnapshotInfo{}, err
	}
	st.counters.snapshotSeconds.Observe(time.Since(start))
	return SnapshotInfo{Seq: seq, Items: n}, nil
}

// ReplayApplier applies recovered WAL records to a Dataset one at a time,
// in append order, reusing its delete-key buffer across records. It is fed
// directly from persist.OpenStream's record callback (after the snapshot
// entries were bulk-loaded), so a long WAL tail replays without per-record
// allocation. The zero value is ready to use; an applier serves one
// recovery at a time.
type ReplayApplier[K cmp.Ordered] struct {
	keys []K
}

// Apply applies one recovered record. Weight updates are skipped on
// unweighted datasets (they cannot be logged there either). rec.Entries is
// only read during the call, so persist's reused decode buffers are safe
// to pass through.
func (ra *ReplayApplier[K]) Apply(ds Dataset[K], rec persist.Record[K]) error {
	switch rec.Op {
	case persist.OpInsert:
		return ds.InsertItems(rec.Entries)
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
		ds.UpdateWeights(rec.Entries)
	}
	return nil
}
