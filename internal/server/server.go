// Package server is the transport-agnostic serving core over the
// concurrent IRS structures: the piece that turns the batch APIs' lock
// amortization (InsertBatch, SampleMany) into system-level throughput for
// independent clients. The HTTP daemon (cmd/irsd) and its importable
// handler/client layer (package github.com/irsgo/irs/server) are thin
// adapters over this core.
//
// # Request coalescing
//
// The core's central mechanism is the coalescer (coalescer.go): sample
// requests that arrive concurrently for one dataset are merged into a
// single SampleMany call, and insert requests into a single InsertBatch
// call, with per-request scatter of the results. Batches form late: each
// flusher worker pulls straight from the request queue — one request, plus
// whatever else is already queued — so a request that finds a flusher idle
// is served at once and merging happens only among requests that piled up
// while every flusher was busy. This is statistically free: SampleMany
// already guarantees that every query in a batch gets exactly uniform (or
// exactly weight-proportional), mutually independent samples against one
// consistent snapshot — which queries share a batch is invisible in the
// output distribution. So coalescing changes lock traffic and throughput,
// never the IRS contract; the end-to-end chi-square and independence
// suites in package server verify this through the full HTTP stack.
//
// # Admission control
//
// Each dataset has a bounded request queue per path (sample, insert). When
// a queue is full, submission fails fast with ErrOverloaded instead of
// growing an unbounded backlog; after Close begins, with ErrShuttingDown.
// Requests accepted before Close are always answered — shutdown drains.
// The bound is exact: a path holds at most Config.QueueDepth queued
// requests plus the batches (each at most Config.MaxBatch requests) its
// Config.Flushers workers have inside the backend; nothing is parked in
// between. Config.CoalesceWindow is a deprecated opt-in linger.
package server

import (
	"cmp"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/irsgo/irs/internal/core"
	"github.com/irsgo/irs/internal/persist"
	"github.com/irsgo/irs/internal/shard"
	"github.com/irsgo/irs/internal/weighted"
	"github.com/irsgo/irs/internal/xrand"
)

// Typed serving errors. The transport layer maps these to wire codes and
// HTTP statuses; the client maps the codes back.
var (
	// ErrUnknownDataset: the named dataset is not registered.
	ErrUnknownDataset = errors.New("server: unknown dataset")
	// ErrAmbiguousDataset: no dataset name was given and more than one is
	// registered, so there is no default to route to.
	ErrAmbiguousDataset = errors.New("server: dataset name required when several are registered")
	// ErrDuplicateDataset: Add was called with a name already in use.
	ErrDuplicateDataset = errors.New("server: dataset already registered")
	// ErrInvalidRange: a query with lo > hi or a NaN bound, or a mutation
	// carrying a NaN key.
	ErrInvalidRange = errors.New("server: inverted range (lo > hi)")
	// ErrInvalidCount: a sample request with t <= 0.
	ErrInvalidCount = errors.New("server: sample count must be positive")
	// ErrEmptyRange: the range holds no sampling mass (no keys, or only
	// zero-weight keys on a weighted dataset).
	ErrEmptyRange = errors.New("server: range holds no sampling mass")
	// ErrOverloaded: the dataset's request queue is full — backpressure.
	ErrOverloaded = errors.New("server: request queue full")
	// ErrShuttingDown: the core is draining; no new work is admitted.
	ErrShuttingDown = errors.New("server: shutting down")
	// ErrUnavailable: an upstream node a cluster router needed could not be
	// reached. Single-node serving never produces it; the router wraps
	// transport failures in it so clients get one typed, transport-invariant
	// answer for "a partition is down".
	ErrUnavailable = errors.New("server: upstream node unavailable")
	// ErrInvalidWeight: an insert carried a negative, NaN, or infinite
	// weight for a weighted dataset.
	ErrInvalidWeight = weighted.ErrInvalidWeight
)

// Defaults for Config fields left at their zero value.
const (
	DefaultQueueDepth = 1024
	DefaultMaxBatch   = 64
)

// Config holds the admission-control and coalescing knobs, applied per
// dataset and per path (sample, insert).
type Config struct {
	// QueueDepth bounds the pending-request backlog; a full queue rejects
	// with ErrOverloaded. <= 0 means DefaultQueueDepth.
	QueueDepth int
	// MaxBatch caps how many coalesced requests one backend call carries.
	// <= 0 means DefaultMaxBatch.
	MaxBatch int
	// CoalesceWindow is how long a flusher lingers for further requests
	// after taking what is already queued. The zero value — the default
	// everywhere, and the designed path — coalesces opportunistically and
	// adds no latency. A positive window is a deprecated opt-in: it costs
	// every request at least that much latency (an idle runtime rounds a
	// 100 µs timer up to ~1 ms) for batches that load forms by itself, and
	// the field goes once nothing sets it.
	CoalesceWindow time.Duration
	// Flushers is the number of backend calls that may be in flight at
	// once per dataset and path. <= 0 means GOMAXPROCS.
	Flushers int
}

func (c Config) withDefaults() Config {
	if c.QueueDepth <= 0 {
		c.QueueDepth = DefaultQueueDepth
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = DefaultMaxBatch
	}
	if c.Flushers <= 0 {
		c.Flushers = runtime.GOMAXPROCS(0)
	}
	return c
}

// Core serves named datasets with request coalescing and admission
// control. All methods are safe for any number of concurrent goroutines.
type Core[K cmp.Ordered] struct {
	cfg Config

	mu     sync.RWMutex // guards byName and closed
	byName map[string]*dsState[K]
	closed bool

	// The blocking forms of the two coalesced operations wait here.
	sampleWait Blocking[[]K]
	insertWait Blocking[int]
}

// Per-dataset lifecycle states, mirroring the process-level /readyz
// machine (starting → ready → draining) one level down: a dataset is
// starting while its state is being assembled, serving once published in
// the registry, draining while Remove (or Close) answers its accepted
// requests, and closed once its coalescers have stopped and its store —
// if any — has been synced and closed.
const (
	DatasetStarting int32 = iota
	DatasetServing
	DatasetDraining
	DatasetClosed
)

// LifecycleName renders a lifecycle state for /stats and /metrics.
func LifecycleName(s int32) string {
	switch s {
	case DatasetStarting:
		return "starting"
	case DatasetServing:
		return "serving"
	case DatasetDraining:
		return "draining"
	case DatasetClosed:
		return "closed"
	default:
		return "unknown"
	}
}

// SampleStats is the optional second answer of a sample request: the
// range's in-range key count and sampling mass, read under the same locks
// as the request's samples — so the mass describes exactly the population
// the samples were drawn from. A cluster router splits a spanning request
// over these masses after one round trip per node. It is the engine's
// per-query report (shard.QueryStats), so a flush hands it on as is.
type SampleStats = shard.QueryStats

// sampleArg is one sample request travelling through the coalescer: the
// query, the caller-provided buffer its samples are appended to (nil for
// plain Sample calls, a reused buffer for SampleAppend callers), and where
// to report the range's (count, mass), nil when not asked.
type sampleArg[K cmp.Ordered] struct {
	q     shard.Query[K]
	dst   []K
	stats *SampleStats
}

// dsState is one registered dataset with its two coalescers and, when
// registered through AddDurable, its persistence store.
type dsState[K cmp.Ordered] struct {
	name     string
	ds       Dataset[K]
	samples  *coalescer[sampleArg[K], []K]
	inserts  *coalescer[[]Item[K], int]
	counters counters

	// state is the dataset's lifecycle state (Dataset* constants).
	// dropped is set by Remove before draining begins: once a dataset is
	// being dropped, requests that raced past lookup and lost — hitting a
	// closed coalescer or a closed store — are answered ErrUnknownDataset
	// instead of ErrShuttingDown, so after a drop the only typed answer
	// clients ever see for that name is not_found (the core itself is not
	// shutting down).
	state   atomic.Int32
	dropped atomic.Bool

	// store is nil for memory-only datasets. logMu orders WAL staging
	// with the in-memory applies they mirror (held across both), and the
	// snapshot protocol's rotate+export; snapMu serializes whole snapshot
	// protocols. The fsync wait happens outside logMu — the group-commit
	// restructure (see persist.go). entryPool recycles the Entry buffers
	// durable deletes turn their keys into.
	store     *persist.Store[K]
	logMu     sync.Mutex
	snapMu    sync.Mutex
	recovery  persist.RecoveryStats
	entryPool sync.Pool // *[]persist.Entry[K]
}

// getEntries borrows a reusable entries buffer (length 0) from the pool.
func (st *dsState[K]) getEntries() *[]persist.Entry[K] {
	if p, ok := st.entryPool.Get().(*[]persist.Entry[K]); ok {
		return p
	}
	return new([]persist.Entry[K])
}

// putEntries returns a borrowed buffer, dropping ones an outsized batch
// grew past the scratch bound.
func (st *dsState[K]) putEntries(p *[]persist.Entry[K]) {
	if cap(*p) > maxRetainedScratch {
		return
	}
	*p = (*p)[:0]
	st.entryPool.Put(p)
}

// NewCore returns an empty Core with the given knobs.
func NewCore[K cmp.Ordered](cfg Config) *Core[K] {
	return &Core[K]{cfg: cfg.withDefaults(), byName: make(map[string]*dsState[K])}
}

// Add registers ds under name and starts its coalescers. Names must be
// non-empty and unique; registering on a closed core is rejected.
func (c *Core[K]) Add(name string, ds Dataset[K]) error {
	return c.add(name, ds, nil, persist.RecoveryStats{})
}

// add builds the dataset's state completely — including its persistence
// attachment — before publishing it in byName, so no request can ever
// observe a durable dataset without its store. Add is callable at any
// time, not just boot: the registry lock orders it against concurrent
// lookups, and the fully-built-before-published rule means a request can
// never observe a half-registered dataset.
func (c *Core[K]) add(name string, ds Dataset[K], store *persist.Store[K], recovered persist.RecoveryStats) error {
	if name == "" {
		return ErrUnknownDataset
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrShuttingDown
	}
	if _, dup := c.byName[name]; dup {
		return ErrDuplicateDataset
	}
	st := &dsState[K]{name: name, ds: ds, store: store, recovery: recovered}
	st.state.Store(DatasetStarting)
	cfg := c.cfg
	st.samples = newCoalescer[sampleArg[K], []K](cfg.QueueDepth, cfg.MaxBatch, cfg.Flushers, cfg.CoalesceWindow,
		func() func([]request[sampleArg[K], []K]) {
			// One private RNG stream and one private scratch set per flusher.
			f := &sampleFlusher[K]{st: st, rng: ds.NewStream()}
			return f.flush
		})
	st.inserts = newCoalescer[[]Item[K], int](cfg.QueueDepth, cfg.MaxBatch, cfg.Flushers, cfg.CoalesceWindow,
		func() func([]request[[]Item[K], int]) {
			f := &insertFlusher[K]{st: st}
			return f.flush
		})
	st.state.Store(DatasetServing)
	c.byName[name] = st
	return nil
}

// Remove unregisters the named dataset and tears it down while every
// other dataset keeps serving untouched: the name is unpublished first
// (new lookups answer ErrUnknownDataset immediately), then both
// coalescers drain — every request accepted before the drop began is
// answered, no ACK is lost — and finally, for durable datasets, the
// store is synced and closed (preceded by a final compacting snapshot
// when snapshot is true, so a later re-add recovers from a snapshot
// instead of a long WAL replay). The dataset's directory is left on
// disk; dropping unregisters, it does not destroy data.
//
// Requests that resolved the dataset just before the drop and lose the
// race are answered ErrUnknownDataset too (see dsState.dropped), so the
// typed error vocabulary for a dropped name is exactly not_found.
// The empty name is not a valid drop target — Remove takes the explicit
// name only, never the sole-dataset default.
func (c *Core[K]) Remove(name string, snapshot bool) error {
	if name == "" {
		return ErrUnknownDataset
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return ErrShuttingDown
	}
	st, ok := c.byName[name]
	if !ok {
		c.mu.Unlock()
		return ErrUnknownDataset
	}
	delete(c.byName, name)
	c.mu.Unlock()

	st.dropped.Store(true)
	return st.drain(snapshot)
}

// drain is the teardown Remove and Close share: both coalescers close —
// answering every request the dataset has accepted — then the store, if
// any, is synced and closed, after a final snapshot when asked.
func (st *dsState[K]) drain(snapshot bool) error {
	st.state.CompareAndSwap(DatasetServing, DatasetDraining)
	st.samples.close()
	st.inserts.close()
	var errs []error
	if st.store != nil {
		if snapshot {
			if _, err := st.snapshotNow(); err != nil {
				errs = append(errs, err)
			}
		}
		if err := st.store.Close(); err != nil {
			errs = append(errs, err)
		}
	}
	st.state.Store(DatasetClosed)
	return errors.Join(errs...)
}

// dropErr rewrites the shutdown-vocabulary errors a request racing a
// Remove can observe (closed coalescer, closed store) into the dropped
// dataset's typed answer. Errors on live datasets pass through.
func (st *dsState[K]) dropErr(err error) error {
	if err != nil && st.dropped.Load() && errors.Is(err, ErrShuttingDown) {
		return ErrUnknownDataset
	}
	return err
}

// lookup resolves a dataset name; the empty name resolves only when
// exactly one dataset is registered.
func (c *Core[K]) lookup(name string) (*dsState[K], error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.closed {
		return nil, ErrShuttingDown
	}
	if name == "" {
		if len(c.byName) == 1 {
			for _, st := range c.byName {
				return st, nil
			}
		}
		if len(c.byName) > 1 {
			return nil, ErrAmbiguousDataset
		}
		return nil, ErrUnknownDataset
	}
	st, ok := c.byName[name]
	if !ok {
		return nil, ErrUnknownDataset
	}
	return st, nil
}

// Resolve returns the dataset name a request for name would be served by
// (resolving the empty name to the sole dataset), or the routing error.
func (c *Core[K]) Resolve(name string) (string, error) {
	st, err := c.lookup(name)
	if err != nil {
		return "", err
	}
	return st.name, nil
}

// Datasets returns the registered dataset names in sorted order.
func (c *Core[K]) Datasets() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	names := make([]string, 0, len(c.byName))
	for n := range c.byName {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Sample draws t independent samples from [lo, hi] of the named dataset,
// coalescing with concurrently-arriving requests into one backend
// SampleMany call. Validation happens before admission, so malformed
// requests never consume queue capacity.
func (c *Core[K]) Sample(name string, lo, hi K, t int) ([]K, error) {
	return c.SampleAppend(name, nil, lo, hi, t)
}

// SampleAppend is Sample appending into dst — the allocation-free spelling
// for callers that reuse a buffer across requests. It is SampleAppendAsync
// plus a wait, so a steady-state round trip through the core performs zero
// heap allocations per request: the waiter, batch slice, flusher scratch,
// and backend query scratch are all pooled or flusher-owned, and the
// samples land directly in dst. On error dst is returned unchanged.
func (c *Core[K]) SampleAppend(name string, dst []K, lo, hi K, t int) ([]K, error) {
	out, err := c.sampleWait.Do(func(done Reply[[]K]) error {
		return c.SampleAppendAsync(name, dst, lo, hi, t, nil, done)
	})
	if err != nil {
		return dst, err
	}
	return out, nil
}

// SampleAppendAsync is the one body of the sample operation, under the
// Reply contract: the request joins the dataset's coalescer queue, and its
// samples (appended to dst) or its error arrive through done. Transports
// that multiplex many requests over one connection submit here directly —
// the connection's reader goroutine must not park on a flush, or one slow
// batch would stall every pipelined request behind it.
//
// A non-nil stats asks for the range's (count, mass) as well; it is filled
// before done is invoked and must stay valid until then. Such a request
// over a range with no sampling mass succeeds with no samples and mass 0
// instead of failing with ErrEmptyRange: the answer is the stats.
func (c *Core[K]) SampleAppendAsync(name string, dst []K, lo, hi K, t int, stats *SampleStats, done Reply[[]K]) error {
	if t <= 0 {
		return ErrInvalidCount
	}
	if !(lo <= hi) { // inverted, or a NaN bound: NaN fails every comparison
		return ErrInvalidRange
	}
	st, err := c.lookup(name)
	if err != nil {
		return err
	}
	st.counters.sampleRequests.Add(1)
	err = st.samples.submit(sampleArg[K]{q: shard.Query[K]{Lo: lo, Hi: hi, T: t}, dst: dst, stats: stats}, done)
	if errors.Is(err, ErrOverloaded) {
		st.counters.sampleRejected.Add(1)
	}
	return st.dropErr(err)
}

// maxRetainedScratch bounds the element capacity a flusher keeps between
// flushes: scratch grown past it by one outsized batch is dropped after
// use rather than pinning high-water memory for the server's lifetime.
// Steady-state batches (MaxBatch requests of ordinary t) stay well under
// it, so the zero-alloc property is unaffected.
const maxRetainedScratch = 1 << 16

// sampleFlusher is one sample flush worker's private state: its RNG stream
// plus reusable scratch — the query slice, the flat result buffer every
// query's samples land in, the per-query boundaries and the per-query
// (count, mass) — so a steady-state flush performs no heap allocation of
// its own.
type sampleFlusher[K cmp.Ordered] struct {
	st      *dsState[K]
	rng     *xrand.RNG
	queries []shard.Query[K]
	flat    []K
	starts  []int
	stats   []SampleStats
}

// flush answers one coalesced batch with a single SampleManyStatsAppend
// call into the flusher's flat buffer and scatters each query's segment
// back to its requester, appending into the requester's own dst buffer, and
// its (count, mass) into the requester's SampleStats when it asked.
func (f *sampleFlusher[K]) flush(batch []request[sampleArg[K], []K]) {
	st := f.st
	st.counters.noteSampleBatch(len(batch))
	f.queries = f.queries[:0]
	f.stats = f.stats[:0]
	for _, r := range batch {
		f.queries = append(f.queries, r.q.q)
		f.stats = append(f.stats, SampleStats{})
	}
	flat, starts, err := st.ds.SampleManyStatsAppend(f.flat[:0], f.starts[:0], f.queries, f.stats, f.rng)
	if cap(flat) <= maxRetainedScratch {
		f.flat = flat
	} else {
		f.flat = nil
	}
	f.starts = starts
	for i, r := range batch {
		if err == nil && r.q.stats != nil {
			*r.q.stats = f.stats[i]
		}
		switch {
		case err != nil:
			r.done.Deliver(nil, err)
		case starts[i+1] == starts[i] && r.q.stats != nil:
			r.done.Deliver(r.q.dst, nil)
		case starts[i+1] == starts[i]:
			// T was validated positive, so an empty segment means the range
			// had no sampling mass at flush time.
			r.done.Deliver(nil, ErrEmptyRange)
		default:
			seg := flat[starts[i]:starts[i+1]]
			st.counters.samplesReturned.Add(uint64(len(seg)))
			r.done.Deliver(append(r.q.dst, seg...), nil)
		}
	}
}

// Insert stores items in the named dataset, returning the number stored:
// InsertAsync plus a wait. The items slice must not be mutated until
// Insert returns.
func (c *Core[K]) Insert(name string, items []Item[K]) (int, error) {
	return c.insertWait.Do(func(done Reply[int]) error {
		return c.InsertAsync(name, items, done)
	})
}

// InsertAsync is the one body of the insert operation, under the Reply
// contract: it coalesces with concurrently-arriving insert requests into
// one backend InsertBatch call and delivers the stored count. Keys (no NaN)
// and, on weighted datasets, weights are validated before admission
// (unweighted datasets ignore weights), so a merged batch cannot fail
// validation. An empty items slice is answered inline. The items slice must
// stay unmutated until done is invoked.
func (c *Core[K]) InsertAsync(name string, items []Item[K], done Reply[int]) error {
	st, err := c.lookup(name)
	if err != nil {
		return err
	}
	if len(items) == 0 {
		done.Deliver(0, nil)
		return nil
	}
	if err := validItems(items, st.ds.Weighted()); err != nil {
		return err
	}
	st.counters.insertRequests.Add(1)
	err = st.inserts.submit(items, done)
	if errors.Is(err, ErrOverloaded) {
		st.counters.insertRejected.Add(1)
	}
	return st.dropErr(err)
}

// errNaNKey rejects a NaN key. NaN has no place in the key order: stored,
// it would break the sorted invariants range counts, deletes, and draws
// rely on. Only float key types can trip it. It is both ErrInvalidRange
// (its wire code) and core.ErrNaNKey (irs.ErrNaNKey, the sentinel the
// library's own entry points reject NaN with).
var errNaNKey = fmt.Errorf("%w: %w", ErrInvalidRange, core.ErrNaNKey)

// validItems checks every key and, when weights matter, every weight.
func validItems[K cmp.Ordered](items []Item[K], weights bool) error {
	for _, it := range items {
		if it.Key != it.Key {
			return errNaNKey
		}
		if weights && !weighted.ValidWeight(it.Weight) {
			return ErrInvalidWeight
		}
	}
	return nil
}

// insertFlusher is one insert flush worker's private state: the reusable
// concatenation buffer merged batches are assembled in — and, on durable
// datasets, staged from as-is — so a steady-state durable flush performs no
// heap allocation of its own.
type insertFlusher[K cmp.Ordered] struct {
	st    *dsState[K]
	items []Item[K]
}

// flush concatenates one coalesced batch of insert requests and stores it
// with a single InsertBatch call — preceded, on durable datasets, by a
// single WAL staging covering the whole merged batch, so the group-commit
// fsync cost amortizes across every coalesced request (and, through the
// committer, across concurrent flushers too). The backend does not retain
// the items slice, so the buffer is safe to reuse on the next flush.
func (f *insertFlusher[K]) flush(batch []request[[]Item[K], int]) {
	st := f.st
	st.counters.noteInsertBatch(len(batch))
	f.items = f.items[:0]
	for _, r := range batch {
		f.items = append(f.items, r.q...)
	}
	total := len(f.items)
	err := st.applyInsert(f.items)
	if cap(f.items) > maxRetainedScratch {
		f.items = nil
	}
	if err == nil {
		st.counters.itemsInserted.Add(uint64(total))
	}
	for _, r := range batch {
		if err != nil {
			r.done.Deliver(0, err)
		} else {
			r.done.Deliver(len(r.q), nil)
		}
	}
}

// Delete removes one occurrence of each key from the named dataset,
// returning how many were present and removed. Deletes go straight to
// DeleteBatch — the request body is already a batch — and remain subject
// to the shutdown gate. An empty key list is answered inline, as Insert and
// Update do, so it never stages a WAL record.
func (c *Core[K]) Delete(name string, keys []K) (int, error) {
	st, err := c.lookup(name)
	if err != nil {
		return 0, err
	}
	for _, k := range keys {
		if k != k {
			return 0, errNaNKey
		}
	}
	st.counters.deleteRequests.Add(1)
	if len(keys) == 0 {
		return 0, nil
	}
	n, err := st.applyDelete(keys)
	if err != nil {
		return 0, st.dropErr(err)
	}
	st.counters.keysDeleted.Add(uint64(n))
	return n, nil
}

// commit runs one mutation of a durable dataset under the durability
// order: logMu covers exactly (stage, apply) — assigning the batch its WAL
// position and mutating memory in the same order — while the fsync wait
// runs after logMu is released, so a slow disk flush never serializes
// other writers behind this batch.
func (st *dsState[K]) commit(stage func([]persist.Entry[K]) (persist.Ticket, error), entries []persist.Entry[K], apply func() (int, error)) (int, error) {
	st.logMu.Lock()
	t, err := stage(entries)
	if err != nil {
		st.logMu.Unlock()
		return 0, logErr(err)
	}
	n, err := apply()
	st.logMu.Unlock()
	if err != nil {
		return 0, err
	}
	return n, logErr(st.store.WaitDurable(t))
}

// applyInsert applies one merged insert batch, write-ahead logged on
// durable datasets.
func (st *dsState[K]) applyInsert(items []Item[K]) error {
	if st.store == nil {
		return st.ds.InsertItems(items)
	}
	_, err := st.commit(st.store.StageInsert, items, func() (int, error) { return 0, st.ds.InsertItems(items) })
	return err
}

// applyDelete applies one delete batch, write-ahead logged on durable
// datasets.
func (st *dsState[K]) applyDelete(keys []K) (int, error) {
	if st.store == nil {
		return st.ds.DeleteKeys(keys), nil
	}
	sp := st.getEntries()
	defer st.putEntries(sp)
	for _, k := range keys {
		*sp = append(*sp, persist.Entry[K]{Key: k})
	}
	return st.commit(st.store.StageDelete, *sp, func() (int, error) { return st.ds.DeleteKeys(keys), nil })
}

// logErr maps WAL append failures to the serving vocabulary: a store
// closed by Close means the core is draining (a Delete/Update can pass
// the lookup gate just before Close and reach a closed store), so the
// caller deserves the retryable shutting_down answer, not an internal
// error.
func logErr(err error) error {
	if errors.Is(err, persist.ErrClosed) {
		return ErrShuttingDown
	}
	return err
}

// RangeStats returns the number of keys and the total sampling mass in
// [lo, hi] of the named dataset, which a cluster router sums into its own
// RangeStats. (Its spanning samples get the same figures from the sample
// itself; see SampleAppendAsync.) It bypasses the coalescer: the engines
// answer it in O(shards · log n) under read locks.
func (c *Core[K]) RangeStats(name string, lo, hi K) (int, float64, error) {
	if !(lo <= hi) { // inverted, or a NaN bound
		return 0, 0, ErrInvalidRange
	}
	st, err := c.lookup(name)
	if err != nil {
		return 0, 0, err
	}
	n, m := st.ds.RangeStats(lo, hi)
	return n, m, nil
}

// Stats returns a snapshot of every dataset's serving counters and
// topology, in name order.
func (c *Core[K]) Stats() Stats {
	c.mu.RLock()
	states := make([]*dsState[K], 0, len(c.byName))
	for _, st := range c.byName {
		states = append(states, st)
	}
	c.mu.RUnlock()
	sort.Slice(states, func(i, j int) bool { return states[i].name < states[j].name })
	out := Stats{Datasets: make([]DatasetStats, len(states))}
	for i, st := range states {
		out.Datasets[i] = st.snapshot()
	}
	return out
}

// Close stops admitting work and drains: every request accepted before
// Close is answered before Close returns, then each durable dataset's
// store is synced and closed. Later calls to Sample, Insert, Delete, or
// Update fail with ErrShuttingDown. Safe to call more than once; the
// returned error joins any store close failures.
func (c *Core[K]) Close() error {
	c.mu.Lock()
	c.closed = true
	states := make([]*dsState[K], 0, len(c.byName))
	for _, st := range c.byName {
		states = append(states, st)
	}
	c.mu.Unlock()
	var errs []error
	for _, st := range states {
		errs = append(errs, st.drain(false))
	}
	return errors.Join(errs...)
}
