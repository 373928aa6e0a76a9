package server

import (
	"time"

	irs "github.com/irsgo/irs"
	"github.com/irsgo/irs/internal/persist"
	srv "github.com/irsgo/irs/internal/server"
)

// SyncPolicy selects when WAL appends reach stable storage; see the
// constants for the trade-offs.
type SyncPolicy = persist.SyncPolicy

const (
	// SyncAlways fsyncs inside every (coalesced) mutation flush: an
	// acknowledged request is durable. One fsync covers a whole merged
	// batch, so the cost amortizes across concurrent clients.
	SyncAlways = persist.SyncAlways
	// SyncInterval fsyncs on a background timer: a crash loses at most one
	// interval of acknowledged mutations.
	SyncInterval = persist.SyncInterval
	// SyncNone leaves flushing to the OS and the rotate/close paths.
	SyncNone = persist.SyncNone
)

// ParseSyncPolicy parses the flag spellings "always", "interval", "none".
func ParseSyncPolicy(s string) (SyncPolicy, error) { return persist.ParseSyncPolicy(s) }

// Recovery describes what booting a durable dataset reconstructed.
type Recovery = persist.RecoveryStats

// File is the WAL segment file abstraction (see DurableOptions.OpenFile).
type File = persist.File

// SnapshotInfo reports one committed snapshot.
type SnapshotInfo = srv.SnapshotInfo

// SnapshotRequest triggers a point-in-time snapshot (and WAL compaction)
// of a durable dataset.
type SnapshotRequest struct {
	Dataset string `json:"dataset,omitempty"`
}

// SnapshotResponse reports the committed snapshot: the WAL sequence it
// covers and the number of items serialized.
type SnapshotResponse struct {
	Dataset string `json:"dataset"`
	Seq     uint64 `json:"seq"`
	Items   int    `json:"items"`
}

// DurableOptions configures one durable dataset's persistence.
type DurableOptions struct {
	// Dir is the dataset's own directory (one dataset per directory);
	// irsd uses <data-dir>/<dataset-name>. Created if absent.
	Dir string
	// Sync is the WAL fsync policy (default SyncAlways).
	Sync SyncPolicy
	// SyncInterval is the background fsync period under SyncInterval
	// (default 100ms).
	SyncInterval time.Duration
	// Shards is the structure's target shard count (default 1).
	Shards int
	// Seed anchors the structure's sampling streams and treap priorities,
	// like the seeded in-memory constructors. Never influences the
	// sampling distribution.
	Seed uint64
	// OpenFile opens (creating if needed) a WAL segment file. Nil means
	// the OS filesystem. Tests inject files whose reads or syncs block
	// or fail to exercise slow-recovery readiness gating and the
	// group-commit durability contract.
	OpenFile func(path string) (File, error)
}

// AddDurable recovers the dataset persisted in opts.Dir (starting empty on
// a fresh directory) and registers it under name with persistence
// attached: every subsequent insert, delete and (weighted) weight update
// is written ahead to the dataset's WAL inside the same coalesced flush
// that applies it, and /snapshot (or Server.Snapshot) rotates the WAL into
// a compact point-in-time snapshot. Recovery loads the newest snapshot and
// replays the WAL tail; a torn final record (crash mid-append) is
// truncated and reported. A weighted dataset recovers the exact
// (key, weight) multiset. The structure itself stays inside the Server, so
// every write to it goes through the WAL.
//
// Recovery streams: snapshot entries flow straight into the engine's
// sorted bulk-load constructor (no intermediate entry slice), and WAL tail
// records replay through persist's reused decode buffer — so boot-time
// memory is the dataset itself, not a second copy of it.
func (s *Server) AddDurable(name string, weighted bool, opts DurableOptions) (Recovery, error) {
	shards := max(opts.Shards, 1)
	if weighted {
		return addDurable(s, name, opts, persist.KindWeighted,
			func(e persist.Entry[float64]) persist.Entry[float64] { return e },
			func(items []persist.Entry[float64]) (*irs.WeightedConcurrent[float64], error) {
				return irs.NewWeightedConcurrentFromSortedItems(items, shards, opts.Seed)
			},
			srv.NewWeightedDataset)
	}
	return addDurable(s, name, opts, persist.KindUnweighted,
		func(e persist.Entry[float64]) float64 { return e.Key },
		func(keys []float64) (*irs.Concurrent[float64], error) {
			return irs.NewConcurrentFromSortedSeeded(keys, shards, opts.Seed)
		},
		srv.NewUnweightedDataset)
}

// addDurable is the recovery both dataset kinds run, generic over what
// differs between them: the element a snapshot entry becomes (elem), the
// engine's sorted bulk-load constructor (build), and the serving adapter
// over the built structure (adapt).
func addDurable[E any, S any](s *Server, name string, opts DurableOptions, kind uint8,
	elem func(persist.Entry[float64]) E,
	build func(sorted []E) (S, error),
	adapt func(S) srv.Dataset[float64],
) (Recovery, error) {
	var (
		sorted []E
		ds     srv.Dataset[float64]
		ra     srv.ReplayApplier[float64]
	)
	if s.core == nil {
		return Recovery{}, ErrProxy
	}
	begin := time.Now()
	// Snapshot entries stream in key order before the first WAL record, so
	// the structure bulk-loads sorted exactly once — at the first record,
	// or after recovery if the tail is empty.
	load := func() error {
		live, err := build(sorted)
		if err != nil {
			return err
		}
		sorted = nil
		ds = adapt(live)
		return nil
	}
	store, stats, err := persist.OpenStream(opts.Dir, persist.Float64Keys(), persist.Options{
		Kind:         kind,
		Sync:         opts.Sync,
		SyncInterval: opts.SyncInterval,
		OpenFile:     opts.OpenFile,
	}, persist.RecoverySink[float64]{
		SnapshotStart: func(count int) error {
			sorted = make([]E, 0, count)
			return nil
		},
		SnapshotEntry: func(e persist.Entry[float64]) error {
			sorted = append(sorted, elem(e))
			return nil
		},
		Record: func(rec persist.Record[float64]) error {
			if ds == nil {
				if err := load(); err != nil {
					return err
				}
			}
			return ra.Apply(ds, rec)
		},
	})
	if err != nil {
		return Recovery{}, err
	}
	if ds == nil {
		if err := load(); err != nil {
			store.Close()
			return Recovery{}, err
		}
	}
	if err := s.core.AddDurable(name, ds, store, stats); err != nil {
		store.Close()
		return Recovery{}, err
	}
	s.noteRecovery(name, time.Since(begin))
	return stats, nil
}
