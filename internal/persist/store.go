package persist

import (
	"cmp"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/irsgo/irs/internal/metrics"
)

// ErrClosed reports an operation on a closed Store.
var ErrClosed = errors.New("persist: store closed")

// Options configures a Store.
type Options struct {
	// Kind is the dataset kind recorded in snapshots (KindUnweighted or
	// KindWeighted); opening a directory whose snapshots hold the other
	// kind fails rather than mixing states.
	Kind uint8
	// Sync is the WAL fsync policy. Default (zero value): SyncAlways.
	Sync SyncPolicy
	// SyncInterval is the background fsync period under SyncInterval;
	// <= 0 means 100ms.
	SyncInterval time.Duration
	// OpenFile opens (creating if needed) a WAL segment file for
	// read/write appending. Nil means os.OpenFile. Tests inject files
	// whose Sync blocks or fails to exercise the group-commit ACK
	// contract and the sticky-failure path.
	OpenFile func(path string) (File, error)
}

func (o Options) withDefaults() Options {
	if o.Kind == 0 {
		o.Kind = KindUnweighted
	}
	if o.SyncInterval <= 0 {
		o.SyncInterval = 100 * time.Millisecond
	}
	if o.OpenFile == nil {
		o.OpenFile = defaultOpenFile
	}
	return o
}

// RecoveryStats describes what Open reconstructed, for logging and /stats.
type RecoveryStats struct {
	SnapshotSeq     uint64 `json:"snapshot_seq"`     // 0: no snapshot found
	SnapshotEntries int    `json:"snapshot_entries"` // entries loaded from it
	SegmentsScanned int    `json:"segments_scanned"` // WAL segments replayed
	RecordsReplayed int    `json:"records_replayed"` // records in the tail
	TornTail        bool   `json:"torn_tail"`        // truncated a partial final record
}

// Recovery is the reconstructed logical state of a dataset directory:
// the snapshot's entries (key-sorted, as exported) followed by the WAL
// tail records to replay on top, in append order.
type Recovery[K cmp.Ordered] struct {
	Entries []Entry[K]
	Records []Record[K]
	Stats   RecoveryStats
}

// RecoverySink receives the recovered state of a dataset directory as
// OpenStream reads it, without materializing it. Callbacks are optional
// (nil skips). SnapshotStart announces the entry count of the newest
// snapshot before the first SnapshotEntry; entries stream in key order.
// Record receives WAL tail records in append order; its Entries slice is
// reused between calls and must not be retained. Any callback error
// aborts the open.
type RecoverySink[K cmp.Ordered] struct {
	SnapshotStart func(count int) error
	SnapshotEntry func(e Entry[K]) error
	Record        func(rec Record[K]) error
}

// StoreStats is a point-in-time snapshot of a Store's counters.
type StoreStats struct {
	Records         uint64 `json:"records"`              // WAL records appended
	Entries         uint64 `json:"entries"`              // entries across those records
	Bytes           uint64 `json:"bytes"`                // WAL bytes appended
	Syncs           uint64 `json:"syncs"`                // explicit fsync calls
	Snapshots       uint64 `json:"snapshots"`            // snapshots committed
	LastSnapshotSeq uint64 `json:"last_snapshot_seq"`    // sequence of the newest
	ActiveSegment   uint64 `json:"active_segment"`       // sequence being appended
	WALSize         int64  `json:"wal_size"`             // bytes in the active segment
	SyncError       string `json:"sync_error,omitempty"` // sticky durability failure, if any
}

// maxRetainedEncode bounds the record-encode buffer a Store keeps between
// appends; a pathological batch can grow it, but it shrinks back after.
const maxRetainedEncode = 1 << 20

// StoreMetrics holds a Store's histogram instruments: fsync latency and
// the number of records each group commit covered. Recording is atomic
// and allocation-free; the serving layer snapshots them on /metrics
// scrapes.
type StoreMetrics struct {
	// FsyncSeconds times every WAL fsync (group commits, interval
	// syncs, and explicit Syncs alike).
	FsyncSeconds metrics.DurationHistogram
	// CommitRecords counts how many staged records each completed
	// group commit covered — the amortization factor of the committer.
	CommitRecords metrics.SizeHistogram
}

// Ticket identifies one staged record in a Store's WAL order; pass it to
// WaitDurable to block until the record's covering fsync lands. The zero
// Ticket is always durable.
type Ticket struct {
	seq uint64
}

// Store manages one dataset's durability directory: it appends mutation
// records to the active WAL segment and rotates it under snapshots.
//
// # Group commit
//
// Under SyncAlways the write path is split in two: Stage* encodes and
// buffers the record under the store lock — assigning it a position in
// WAL order — and returns a Ticket; WaitDurable blocks until an fsync
// covering that position lands. A single committer goroutine amortizes
// one fsync across every record staged since the previous flush, so
// concurrent writers pay one disk flush between them instead of one
// each, while an acknowledged (WaitDurable-returned) record is always
// on stable storage. Under SyncInterval and SyncNone, WaitDurable
// returns immediately — those policies never promised durability on ACK.
//
// Any fsync or append failure is sticky: the store is considered failed,
// every subsequent Stage*/WaitDurable/Sync returns the original error,
// and Stats reports it — a dying disk surfaces instead of silently
// dropping durability.
//
// Stage*, Sync, and the snapshot protocol are individually thread-safe,
// but exactness of recovery additionally requires that the caller orders
// WAL appends like the in-memory applies they mirror, and that no append
// runs between BeginSnapshot and the state export it covers; the serving
// layer holds its per-dataset log mutex across (stage, apply) and across
// (BeginSnapshot, export) for exactly this. WaitDurable runs outside
// that mutex, which is the whole point: the fsync wait no longer
// serializes other writers.
type Store[K cmp.Ordered] struct {
	dir   string
	codec KeyCodec[K]
	opts  Options

	mu        sync.Mutex
	wal       *walWriter
	active    uint64 // sequence of the open segment
	stagedSeq uint64 // records staged (appended to the buffered writer) so far
	encBuf    []byte // reusable record-encode buffer
	closed    bool
	stopBg    chan struct{}
	bgDone    chan struct{}

	// Commit state: syncedSeq is the highest stagedSeq covered by a
	// completed fsync; failErr is the sticky durability failure. Waiters
	// sleep on commitCond until one of them moves. Lock order: mu may be
	// taken before commitMu (via publish/fail), never the reverse while
	// holding commitMu.
	commitMu   sync.Mutex
	commitCond *sync.Cond
	syncedSeq  uint64
	failErr    error
	failed     atomic.Bool // fast-path mirror of failErr != nil

	kick       chan struct{} // 1-buffered committer wakeup; sends coalesce
	commitStop chan struct{}
	commitDone chan struct{}

	records   atomic.Uint64
	entries   atomic.Uint64
	bytes     atomic.Uint64
	syncs     atomic.Uint64
	snapshots atomic.Uint64
	lastSnap  atomic.Uint64

	metrics StoreMetrics
}

// Metrics returns the store's histogram instruments for scraping.
func (s *Store[K]) Metrics() *StoreMetrics { return &s.metrics }

// Open recovers the dataset directory (creating it if absent) and returns
// the store with its active WAL segment open for appending, plus the
// recovered logical state, fully materialized. A torn final record — the
// footprint of a crash mid-append — is truncated and reported in
// Stats.TornTail; a bad frame anywhere else, or an unreadable newest
// snapshot, is corruption and fails Open. OpenStream is the allocation-
// conscious spelling for large datasets.
func Open[K cmp.Ordered](dir string, codec KeyCodec[K], opts Options) (*Store[K], *Recovery[K], error) {
	rec := &Recovery[K]{}
	st, stats, err := OpenStream(dir, codec, opts, RecoverySink[K]{
		SnapshotStart: func(count int) error {
			rec.Entries = make([]Entry[K], 0, count)
			return nil
		},
		SnapshotEntry: func(e Entry[K]) error {
			rec.Entries = append(rec.Entries, e)
			return nil
		},
		Record: func(r Record[K]) error {
			// The sink's Entries buffer is reused; materialize a copy.
			r.Entries = append([]Entry[K](nil), r.Entries...)
			rec.Records = append(rec.Records, r)
			return nil
		},
	})
	if err != nil {
		return nil, nil, err
	}
	rec.Stats = stats
	return st, rec, nil
}

// OpenStream recovers the dataset directory like Open but streams the
// recovered state through sink instead of materializing it, reusing one
// decode buffer across the whole WAL tail — the path irsd boots large
// durable datasets through.
func OpenStream[K cmp.Ordered](dir string, codec KeyCodec[K], opts Options, sink RecoverySink[K]) (*Store[K], RecoveryStats, error) {
	opts = opts.withDefaults()
	var stats RecoveryStats
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, stats, err
	}
	// The kind marker pins the directory to one dataset kind from its very
	// first open, so a WAL-only directory (no snapshot yet — snapshots
	// carry their own kind byte) can never silently replay into a dataset
	// of the other kind.
	if err := checkKindMarker(dir, opts.Kind); err != nil {
		return nil, stats, err
	}
	names, err := os.ReadDir(dir)
	if err != nil {
		return nil, stats, err
	}
	var segs, snaps []uint64
	for _, de := range names {
		name := de.Name()
		switch {
		case strings.HasSuffix(name, ".tmp"):
			// An interrupted snapshot write; never renamed, so never valid.
			_ = os.Remove(filepath.Join(dir, name))
		default:
			if seq, ok := parseSeq(name, "wal-", ".log"); ok {
				segs = append(segs, seq)
			} else if seq, ok := parseSeq(name, "snap-", ".snap"); ok {
				snaps = append(snaps, seq)
			}
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	sort.Slice(snaps, func(i, j int) bool { return snaps[i] < snaps[j] })

	// Newest snapshot is the base state. Renames make snapshots all-or-
	// nothing, so an unreadable one means real corruption: fail loudly
	// rather than silently recovering an older state whose covering
	// segments were already compacted away.
	var covered uint64
	if len(snaps) > 0 {
		seq := snaps[len(snaps)-1]
		snapSeq, n, err := readSnapshotStream(filepath.Join(dir, snapshotName(seq)), codec, opts.Kind,
			sink.SnapshotStart, sink.SnapshotEntry)
		if err != nil {
			return nil, stats, err
		}
		if snapSeq != seq {
			return nil, stats, fmt.Errorf("%w: %s claims sequence %d", ErrCorrupt, snapshotName(seq), snapSeq)
		}
		covered = seq
		stats.SnapshotSeq = seq
		stats.SnapshotEntries = n
	}

	// Replay segments newer than the snapshot, oldest first. Only the final
	// segment may have a torn tail (the crash point); badness in any other
	// segment would silently drop records that later segments build on.
	var tail []uint64
	for _, seq := range segs {
		if seq > covered {
			tail = append(tail, seq)
		}
	}
	onRecord := sink.Record
	if onRecord == nil {
		onRecord = func(Record[K]) error { return nil }
	}
	active := covered + 1
	var activeValidLen int64
	var scratch replayScratch[K]
	for i, seq := range tail {
		validLen, n, torn, err := replaySegment(filepath.Join(dir, segmentName(seq)), codec, &scratch, onRecord)
		if err != nil {
			return nil, stats, err
		}
		if torn && i != len(tail)-1 {
			return nil, stats, fmt.Errorf("%w: %s: bad frame before the final segment", ErrCorrupt, segmentName(seq))
		}
		stats.SegmentsScanned++
		stats.RecordsReplayed += n
		stats.TornTail = stats.TornTail || torn
		active, activeValidLen = seq, validLen
	}

	st := &Store[K]{dir: dir, codec: codec, opts: opts, active: active}
	st.commitCond = sync.NewCond(&st.commitMu)
	st.lastSnap.Store(covered)
	st.wal, err = openSegment(dir, active, activeValidLen, opts.OpenFile)
	if err != nil {
		return nil, stats, err
	}
	// Compaction leftovers: segments and snapshots the newest snapshot
	// obsoletes (a crash between snapshot rename and purge leaves them).
	for _, seq := range segs {
		if seq <= covered && seq != active {
			_ = os.Remove(filepath.Join(dir, segmentName(seq)))
		}
	}
	for _, seq := range snaps[:max(len(snaps)-1, 0)] {
		_ = os.Remove(filepath.Join(dir, snapshotName(seq)))
	}
	if opts.Sync == SyncInterval {
		st.stopBg = make(chan struct{})
		st.bgDone = make(chan struct{})
		go st.syncLoop()
	}
	if opts.Sync == SyncAlways {
		st.kick = make(chan struct{}, 1)
		st.commitStop = make(chan struct{})
		st.commitDone = make(chan struct{})
		go st.commitLoop()
	}
	return st, stats, nil
}

// checkKindMarker verifies (writing it on first open) the directory's
// "kind" file against want.
func checkKindMarker(dir string, want uint8) error {
	path := filepath.Join(dir, "kind")
	raw, err := os.ReadFile(path)
	switch {
	case os.IsNotExist(err):
		if err := os.WriteFile(path, []byte(kindName(want)+"\n"), 0o644); err != nil {
			return err
		}
		return syncDir(dir)
	case err != nil:
		return err
	}
	got := strings.TrimSpace(string(raw))
	if got != kindName(want) {
		return &kindMismatchError{where: dir, got: got, want: kindName(want)}
	}
	return nil
}

// syncLoop is the SyncInterval background fsync ticker. Sync failures are
// sticky (Sync records them), so a dying disk fails the store instead of
// being silently retried forever.
func (s *Store[K]) syncLoop() {
	defer close(s.bgDone)
	t := time.NewTicker(s.opts.SyncInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			if err := s.Sync(); err != nil && !errors.Is(err, ErrClosed) && s.failed.Load() {
				// The failure is recorded; nothing more to tick for.
				return
			}
		case <-s.stopBg:
			return
		}
	}
}

// fail records err as the store's sticky durability failure (first error
// wins) and wakes every WaitDurable waiter.
func (s *Store[K]) fail(err error) {
	s.commitMu.Lock()
	if s.failErr == nil {
		s.failErr = err
		s.failed.Store(true)
	}
	s.commitMu.Unlock()
	s.commitCond.Broadcast()
}

// publish marks every record staged at or before seq as durable and wakes
// waiters.
func (s *Store[K]) publish(seq uint64) {
	s.commitMu.Lock()
	if seq > s.syncedSeq {
		s.syncedSeq = seq
	}
	s.commitMu.Unlock()
	s.commitCond.Broadcast()
}

// Err returns the store's sticky durability failure, or nil.
func (s *Store[K]) Err() error {
	s.commitMu.Lock()
	defer s.commitMu.Unlock()
	return s.failErr
}

// stage encodes rec, appends its frame to the active segment's buffer, and
// assigns it the next position in WAL order. The encode reuses a store-
// owned buffer, so steady-state staging allocates nothing.
func (s *Store[K]) stage(rec Record[K]) (Ticket, error) {
	if s.failed.Load() {
		return Ticket{}, s.Err()
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return Ticket{}, ErrClosed
	}
	frame, err := appendRecord(s.encBuf[:0], s.codec, rec)
	if err != nil {
		s.mu.Unlock()
		return Ticket{}, err
	}
	if cap(frame) <= maxRetainedEncode {
		s.encBuf = frame[:0]
	} else {
		s.encBuf = nil
	}
	if err := s.wal.append(frame); err != nil {
		s.mu.Unlock()
		s.fail(err)
		return Ticket{}, err
	}
	s.stagedSeq++
	t := Ticket{seq: s.stagedSeq}
	s.mu.Unlock()
	s.records.Add(1)
	s.entries.Add(uint64(len(rec.Entries)))
	s.bytes.Add(uint64(len(frame)))
	if s.opts.Sync == SyncAlways {
		select {
		case s.kick <- struct{}{}:
		default: // a wakeup is already pending; it will cover this record
		}
	}
	return t, nil
}

// StageInsert stages one insert record covering entries and returns its
// durability ticket.
func (s *Store[K]) StageInsert(entries []Entry[K]) (Ticket, error) {
	return s.stage(Record[K]{Op: OpInsert, Entries: entries})
}

// StageDelete stages one delete record covering entries' keys (weights
// ignored) and returns its durability ticket.
func (s *Store[K]) StageDelete(entries []Entry[K]) (Ticket, error) {
	return s.stage(Record[K]{Op: OpDelete, Entries: entries})
}

// StageUpdate stages one update-weight record covering entries and returns
// its durability ticket.
func (s *Store[K]) StageUpdate(entries []Entry[K]) (Ticket, error) {
	return s.stage(Record[K]{Op: OpUpdate, Entries: entries})
}

// WaitDurable blocks until the record t identifies is covered by a
// completed fsync, then returns nil — the group-commit ACK point. Under
// SyncInterval and SyncNone it returns immediately (those policies do not
// promise durability on acknowledge). If the store failed before t's
// covering fsync landed, it returns the sticky failure; a record whose
// fsync completed before the failure still acknowledges as durable.
func (s *Store[K]) WaitDurable(t Ticket) error {
	if s.opts.Sync != SyncAlways {
		if s.failed.Load() {
			return s.Err()
		}
		return nil
	}
	s.commitMu.Lock()
	defer s.commitMu.Unlock()
	for s.syncedSeq < t.seq && s.failErr == nil {
		s.commitCond.Wait()
	}
	if s.syncedSeq >= t.seq {
		return nil
	}
	return s.failErr
}

// commitLoop is the group-commit committer: each wakeup flushes and fsyncs
// everything staged so far, covering every waiter in one disk flush.
func (s *Store[K]) commitLoop() {
	defer close(s.commitDone)
	for {
		select {
		case <-s.kick:
			s.commitOnce()
		case <-s.commitStop:
			return
		}
	}
}

// commitOnce performs one group commit: under the store lock it flushes
// the buffered writer (so the flush never interleaves with a concurrent
// append) and notes the covered sequence; the fsync itself runs outside
// the lock, so staging continues while the disk works.
func (s *Store[K]) commitOnce() {
	s.commitMu.Lock()
	already := s.syncedSeq
	failed := s.failErr != nil
	s.commitMu.Unlock()
	if failed {
		return
	}
	s.mu.Lock()
	if s.closed {
		// Close syncs and publishes; nothing left for the committer.
		s.mu.Unlock()
		return
	}
	seq := s.stagedSeq
	if seq <= already {
		s.mu.Unlock()
		return
	}
	epoch := s.active
	if err := s.wal.flush(); err != nil {
		s.mu.Unlock()
		s.fail(err)
		return
	}
	f := s.wal.f
	s.mu.Unlock()

	syncStart := time.Now()
	if err := f.Sync(); err != nil {
		// If the segment rotated or the store closed while we were
		// syncing, the rotation path already fsynced (and published) the
		// bytes we cover and the handle we hold may simply be closed —
		// that is staleness, not a durability failure.
		s.mu.Lock()
		stale := s.closed || s.active != epoch
		s.mu.Unlock()
		if !stale {
			s.fail(err)
		}
		return
	}
	s.metrics.FsyncSeconds.Observe(time.Since(syncStart))
	s.metrics.CommitRecords.Observe(seq - already)
	s.syncs.Add(1)
	s.publish(seq)
}

// Sync flushes and fsyncs the active segment. A failure is sticky.
func (s *Store[K]) Sync() error {
	if s.failed.Load() {
		return s.Err()
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	seq := s.stagedSeq
	if !s.wal.dirty {
		s.mu.Unlock()
		s.publish(seq)
		return nil
	}
	syncStart := time.Now()
	err := s.wal.sync()
	s.mu.Unlock()
	if err != nil {
		s.fail(err)
		return err
	}
	s.metrics.FsyncSeconds.Observe(time.Since(syncStart))
	s.syncs.Add(1)
	s.publish(seq)
	return nil
}

// BeginSnapshot starts the snapshot protocol: it syncs and closes the
// active segment (sequence S), opens segment S+1 for subsequent appends,
// and returns a commit function. The caller must export the dataset state
// before any further append and then invoke commit with the entry count
// and an Export that streams that state: commit runs export first,
// encoding each block into the file's write buffer as it arrives, so no
// copy of the dataset is ever held. The caller keeps appends paused until
// export returns (the serving layer holds its log mutex across
// BeginSnapshot and the export, releasing it when the export returns);
// commit then fsyncs and renames snap-S into place and purges the segments
// and snapshots it obsoletes, outside any lock. Until commit succeeds,
// recovery simply uses the previous snapshot plus the still-present
// segments. Snapshot protocols must not overlap: the caller serializes
// BeginSnapshot..commit pairs (the serving layer's per-dataset snapshot
// mutex).
func (s *Store[K]) BeginSnapshot() (seq uint64, commit func(count int, export Export[K]) error, err error) {
	if s.failed.Load() {
		return 0, nil, s.Err()
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return 0, nil, ErrClosed
	}
	covered := s.active
	if cerr := s.wal.close(); cerr != nil {
		s.mu.Unlock()
		s.fail(cerr)
		return 0, nil, cerr
	}
	staged := s.stagedSeq
	next, err := openSegment(s.dir, covered+1, 0, s.opts.OpenFile)
	if err != nil {
		// Reopen the old segment for appending; the store must stay usable.
		reopened, rerr := openSegment(s.dir, covered, s.wal.size, s.opts.OpenFile)
		if rerr != nil {
			s.mu.Unlock()
			joined := errors.Join(err, rerr)
			s.fail(joined)
			return 0, nil, joined
		}
		s.wal = reopened
		s.mu.Unlock()
		// The close above fsynced everything staged so far.
		s.syncs.Add(1)
		s.publish(staged)
		return 0, nil, err
	}
	s.wal = next
	s.active = covered + 1
	s.mu.Unlock()
	s.syncs.Add(1)
	s.publish(staged)

	commit = func(count int, export Export[K]) error {
		path := filepath.Join(s.dir, snapshotName(covered))
		if err := writeSnapshotFile(path, s.codec, s.opts.Kind, covered, count, export); err != nil {
			return err
		}
		prev := s.lastSnap.Swap(covered)
		s.snapshots.Add(1)
		for seq := prev; seq <= covered; seq++ {
			_ = os.Remove(filepath.Join(s.dir, segmentName(seq)))
		}
		if prev > 0 && prev != covered {
			_ = os.Remove(filepath.Join(s.dir, snapshotName(prev)))
		}
		return nil
	}
	return covered, commit, nil
}

// Stats returns the store's counters.
func (s *Store[K]) Stats() StoreStats {
	s.mu.Lock()
	var size int64
	var active uint64
	if !s.closed {
		size = s.wal.size
		active = s.active
	}
	s.mu.Unlock()
	var syncErr string
	if err := s.Err(); err != nil {
		syncErr = err.Error()
	}
	return StoreStats{
		Records:         s.records.Load(),
		Entries:         s.entries.Load(),
		Bytes:           s.bytes.Load(),
		Syncs:           s.syncs.Load(),
		Snapshots:       s.snapshots.Load(),
		LastSnapshotSeq: s.lastSnap.Load(),
		ActiveSegment:   active,
		WALSize:         size,
		SyncError:       syncErr,
	}
}

// Dir returns the store's directory.
func (s *Store[K]) Dir() string { return s.dir }

// Close syncs and closes the active segment. Further operations fail with
// ErrClosed. Safe to call more than once. Waiters blocked in WaitDurable
// are released: the closing sync covers everything staged.
func (s *Store[K]) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	err := s.wal.close()
	staged := s.stagedSeq
	s.mu.Unlock()
	if err != nil {
		s.fail(err)
	} else {
		s.publish(staged)
	}
	if s.stopBg != nil {
		close(s.stopBg)
		<-s.bgDone
	}
	if s.commitStop != nil {
		close(s.commitStop)
		<-s.commitDone
	}
	return err
}
