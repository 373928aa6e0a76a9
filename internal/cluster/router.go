package cluster

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/irsgo/irs/client"
	"github.com/irsgo/irs/internal/metrics"
	srv "github.com/irsgo/irs/internal/server"
	"github.com/irsgo/irs/internal/split"
	"github.com/irsgo/irs/internal/xrand"
	"github.com/irsgo/irs/server"
)

// Options configures a Router.
type Options struct {
	// Datasets names the datasets the cluster serves; requests for other
	// names answer ErrUnknownDataset without touching a node, and an empty
	// request name resolves to the sole dataset exactly as on a single
	// node. Must name at least one.
	Datasets []string
	// Seed anchors the per-request multinomial-split RNG streams.
	Seed uint64
	// Timeout bounds each upstream node call; 0 means no bound.
	Timeout time.Duration
}

// mapState is one generation of the router's topology: the partition map,
// the node connections (conns[i] serves m.At(i)), the served dataset set,
// and that generation's per-partition instrumentation. Generations are
// immutable once installed and reference-counted: every request acquires
// the current generation, runs entirely against it, and releases it when
// done — so SetMap can install a repartitioned map while requests started
// under the old one finish on the exact topology they were routed with,
// and the old generation's connections close only after its last request
// completes. The count starts at 1 (the router's own reference, dropped
// when the generation is retired).
type mapState struct {
	m        *Map
	conns    []client.Conn
	datasets map[string]bool
	sole     string // sole dataset name, "" when several are registered
	timeout  time.Duration
	epoch    uint64 // 1 for the boot map, +1 per SetMap

	// Per-partition upstream instrumentation, exposed by AppendMetrics.
	// Counters are per generation: a swap resets them (rate() across the
	// swap behaves like a process restart).
	requests []metrics.Counter // RPCs issued to the partition's node
	failures []metrics.Counter // RPCs that found the node unreachable

	refs      atomic.Int64
	closeOnce sync.Once
	closeErr  error
}

// release drops one reference; the last one out closes the generation's
// connections.
func (s *mapState) release() {
	if s.refs.Add(-1) == 0 {
		_ = s.closeConns()
	}
}

// closeConns closes the generation's node connections exactly once.
func (s *mapState) closeConns() error {
	s.closeOnce.Do(func() {
		errs := make([]error, len(s.conns))
		for i, c := range s.conns {
			errs[i] = c.Close()
		}
		s.closeErr = errors.Join(errs...)
	})
	return s.closeErr
}

// Router fans the single-node serving surface out across a partition map.
// It satisfies server.Backend, so server.NewProxy(router) serves the
// identical HTTP protocol — and irsnet.NewServer on top of that proxy the
// identical TCP protocol — that the nodes themselves speak.
//
// The topology is swappable at runtime: SetMap atomically installs a new
// (validated) partition map and connection set, in-flight requests finish
// on the generation they started with, and the retired generation's
// connections close when its last request completes. irsrouter drives
// this from SIGHUP config reloads.
//
// Failure semantics: sampling and range probes fail whole when any
// overlapping node is unreachable (a partial sample would not be a sample
// of the requested range); mutations apply per partition independently and
// report how many elements were applied alongside an error wrapping
// server.ErrUnavailable for the partitions that failed. Unreachable-node
// errors always satisfy errors.Is(err, server.ErrUnavailable); node-side
// serving errors (*server.APIError) pass through untouched, so the error
// vocabulary a client sees through the router is the node vocabulary plus
// "unavailable".
type Router struct {
	cur   atomic.Pointer[mapState]
	setMu sync.Mutex // serializes SetMap/Close (generation retirement)

	timeout time.Duration

	// Spanning samples draw their split from a pooled scratch whose RNG is
	// reseeded per request to the next stream of the seed's sequence, as
	// the shard engine's NewStream does: no generator is ever shared.
	seed    uint64
	streams atomic.Uint64 // streams handed out so far
	scratch sync.Pool     // *splitScratch

	// The blocking forms of the two asynchronous operations wait here.
	sampleWait srv.Blocking[[]float64]
	insertWait srv.Blocking[int]
}

// newMapState assembles one topology generation.
func newMapState(m *Map, conns []client.Conn, datasets []string, timeout time.Duration, epoch uint64) (*mapState, error) {
	if len(conns) != m.Len() {
		return nil, fmt.Errorf("%w: %d connections for %d partitions", ErrBadMap, len(conns), m.Len())
	}
	s := &mapState{
		m:        m,
		conns:    conns,
		datasets: make(map[string]bool, len(datasets)),
		timeout:  timeout,
		epoch:    epoch,
		requests: make([]metrics.Counter, m.Len()),
		failures: make([]metrics.Counter, m.Len()),
	}
	for _, name := range datasets {
		s.datasets[name] = true
	}
	if len(s.datasets) == 1 {
		s.sole = datasets[0]
	}
	s.refs.Store(1) // the router's own reference
	return s, nil
}

// NewRouter builds a router over the map's partitions; conns[i] is the
// connection to the node owning m.At(i) — one per partition, in map order.
func NewRouter(m *Map, conns []client.Conn, opts Options) (*Router, error) {
	if len(opts.Datasets) == 0 {
		return nil, errors.New("cluster: at least one dataset name required")
	}
	s, err := newMapState(m, conns, opts.Datasets, opts.Timeout, 1)
	if err != nil {
		return nil, err
	}
	r := &Router{
		timeout: opts.Timeout,
		seed:    opts.Seed,
	}
	r.cur.Store(s)
	return r, nil
}

// SetMap atomically installs a new topology: a validated partition map
// plus the connections serving it (conns[i] owns m.At(i)). Validation runs
// before the swap — on error the router keeps serving the old generation
// unchanged and the caller retains ownership of conns (it should close
// them). datasets replaces the served dataset set; empty keeps the current
// one. Requests in flight finish on the generation they started with; the
// retired generation's connections close after its last request completes.
func (r *Router) SetMap(m *Map, conns []client.Conn, datasets []string) error {
	r.setMu.Lock()
	defer r.setMu.Unlock()
	old := r.cur.Load()
	if old == nil {
		return server.ErrShuttingDown
	}
	if len(datasets) == 0 {
		datasets = make([]string, 0, len(old.datasets))
		for name := range old.datasets {
			datasets = append(datasets, name)
		}
		sort.Strings(datasets)
	}
	s, err := newMapState(m, conns, datasets, r.timeout, old.epoch+1)
	if err != nil {
		return err
	}
	r.cur.Store(s)
	old.release() // drop the router's reference; conns close when drained
	return nil
}

// acquire takes a reference on the current generation. The recheck loop
// closes the race with SetMap: if the generation was retired between the
// load and the increment (and may already have closed its connections
// because its count touched zero), the reference is dropped and the new
// generation acquired instead. Returns nil after Close.
func (r *Router) acquire() *mapState {
	for {
		s := r.cur.Load()
		if s == nil {
			return nil
		}
		s.refs.Add(1)
		if r.cur.Load() == s {
			return s
		}
		s.release()
	}
}

// Map returns the current partition map (for observability; each
// generation's topology is immutable — SetMap installs whole new maps).
func (r *Router) Map() *Map {
	if s := r.cur.Load(); s != nil {
		return s.m
	}
	return nil
}

// Epoch returns the current map generation: 1 for the boot map, +1 per
// SetMap.
func (r *Router) Epoch() uint64 {
	if s := r.cur.Load(); s != nil {
		return s.epoch
	}
	return 0
}

// callCtx bounds one upstream call.
func (s *mapState) callCtx() (context.Context, context.CancelFunc) {
	if s.timeout <= 0 {
		return context.Background(), func() {}
	}
	return context.WithTimeout(context.Background(), s.timeout)
}

// wrap classifies an upstream error: node-side serving errors
// (*server.APIError, already carrying the wire vocabulary) pass through;
// anything else — dial failure, timeout, torn connection — becomes an
// unavailable error naming the partition.
func (s *mapState) wrap(i int, err error) error {
	if err == nil {
		return nil
	}
	var apiErr *server.APIError
	if errors.As(err, &apiErr) {
		return err
	}
	s.failures[i].Inc()
	return fmt.Errorf("%w: partition %d (%s): %v", server.ErrUnavailable, i, s.m.At(i).Addr, err)
}

// resolve mirrors the single-node routing rule over the generation's
// registered dataset names.
func (s *mapState) resolve(dataset string) (string, error) {
	if dataset == "" {
		if s.sole != "" {
			return s.sole, nil
		}
		return "", server.ErrAmbiguousDataset
	}
	if !s.datasets[dataset] {
		return "", server.ErrUnknownDataset
	}
	return dataset, nil
}

// begin opens a request: it takes a reference on the current generation
// and resolves the dataset name against it. On a nil error the caller owns
// the reference and must release it once the request has been answered.
func (r *Router) begin(dataset string) (*mapState, string, error) {
	s := r.acquire()
	if s == nil {
		return nil, "", server.ErrShuttingDown
	}
	name, err := s.resolve(dataset)
	if err != nil {
		s.release()
		return nil, "", err
	}
	return s, name, nil
}

// Resolve mirrors the single-node routing rule over the router's
// registered dataset names.
func (r *Router) Resolve(dataset string) (string, error) {
	s, name, err := r.begin(dataset)
	if err != nil {
		return "", err
	}
	s.release()
	return name, nil
}

// SampleAppend is SampleAppendAsync plus a wait; on error dst is returned
// unchanged.
func (r *Router) SampleAppend(dataset string, dst []float64, lo, hi float64, t int) ([]float64, error) {
	out, err := r.sampleWait.Do(func(done server.SampleReply) error {
		return r.SampleAppendAsync(dataset, dst, lo, hi, t, done)
	})
	if err != nil {
		return dst, err
	}
	return out, nil
}

// SampleAppendAsync answers t independent mass-proportional samples of
// [lo, hi] drawn across every overlapping partition — see the package
// comment for the exactness construction. When exactly one partition
// overlaps, the request is forwarded verbatim, so a router over a single
// node is sample-for-sample identical to that node.
//
// Under the Backend async contract an accepted request here is a goroutine
// — the router has no coalescer queue to admit into; the fan-out itself is
// the slow part — which holds the generation reference until delivery, so
// a concurrent SetMap cannot close the connections under it.
func (r *Router) SampleAppendAsync(dataset string, dst []float64, lo, hi float64, t int, done server.SampleReply) error {
	if t <= 0 {
		return server.ErrInvalidCount
	}
	if !(lo <= hi) { // inverted, or a NaN bound
		return server.ErrInvalidRange
	}
	s, name, err := r.begin(dataset)
	if err != nil {
		return err
	}
	go func() {
		defer s.release()
		done.Deliver(r.sampleResolved(s, name, dst, lo, hi, t))
	}()
	return nil
}

func (r *Router) sampleResolved(s *mapState, name string, dst []float64, lo, hi float64, t int) ([]float64, error) {
	first, last := s.m.Overlap(lo, hi)
	if first > last {
		return dst, server.ErrEmptyRange // query outside the map's coverage
	}
	if first == last {
		// Single-partition fast path: forward the request unchanged (the
		// node clips to its own holdings anyway), keeping the router
		// bit-transparent over one partition.
		s.requests[first].Inc()
		ctx, cancel := s.callCtx()
		defer cancel()
		out, err := s.conns[first].SampleAppend(ctx, name, dst, lo, hi, t)
		if err != nil {
			return dst, s.wrap(first, err)
		}
		return out, nil
	}

	// Stage 1: per-partition in-range (count, mass) probes on the clipped
	// ranges, in parallel. Any unreachable node fails the request whole: a
	// sample drawn from only the reachable partitions would be a sample of
	// a different population.
	masses, total, totalMass, err := s.probe(name, first, last, lo, hi)
	if err != nil {
		return dst, err
	}
	if total == 0 || totalMass <= 0 {
		return dst, server.ErrEmptyRange
	}

	// Stages 2-4 are internal/split's construction: allocate the t output
	// positions over the partitions, have each node fill its segment of one
	// block with i.i.d. samples of its clip, in parallel, and scatter the
	// block back into draw order. A node returns exactly its tally or an
	// error (a concurrent deletion emptying a partition between probe and
	// sample surfaces as that node's error and fails the request, never as
	// a silently short result). The scratch is safe to recycle on return:
	// scatter has waited for every leg, and a Conn is done with the segment
	// it appends into once SampleAppend returns, cancelled or not.
	sc, _ := r.scratch.Get().(*splitScratch)
	if sc == nil {
		sc = new(splitScratch)
	}
	defer r.scratch.Put(sc)
	sc.rng.Reseed(xrand.StreamSeed(r.seed, r.streams.Add(1)))
	if err := sc.plan.Draw(masses, t, &sc.rng); err != nil {
		return dst, err // a node reported a mass that is not finite
	}
	if cap(sc.block) < t {
		sc.block = make([]float64, t)
	}
	block := sc.block[:t]
	if err := s.scatter(first, last, func(ctx context.Context, i int) error {
		from, to := sc.plan.Seg(i - first)
		if from == to {
			return nil
		}
		clo, chi, _ := s.m.Clip(i, lo, hi)
		seg, err := s.conns[i].SampleAppend(ctx, name, block[from:from:to], clo, chi, to-from)
		if err == nil && len(seg) != to-from {
			err = fmt.Errorf("cluster: partition %d (%s) returned %d samples, want %d", i, s.m.At(i).Addr, len(seg), to-from)
		}
		return err
	}); err != nil {
		return dst, err
	}
	return split.Scatter(dst, &sc.plan, block), nil
}

// splitScratch is one spanning sample's working set, pooled on the Router.
type splitScratch struct {
	plan  split.Plan
	rng   xrand.RNG
	block []float64 // per-partition sample blocks, concatenated
}

// scatter runs f for every partition in [first, last] concurrently, each
// under its own call context, and returns the joined wrapped errors (nil
// when all succeed). It counts no upstream requests itself: f may find a
// partition needs no RPC, so callers that track s.requests do it in f.
func (s *mapState) scatter(first, last int, f func(ctx context.Context, i int) error) error {
	errs := make([]error, last-first+1)
	var wg sync.WaitGroup
	for i := first; i <= last; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := s.callCtx()
			defer cancel()
			errs[i-first] = s.wrap(i, f(ctx, i))
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// probe asks every partition in [first, last] for the in-range
// (count, mass) of its clip of [lo, hi], in parallel — RangeStats' whole
// job and stage 1 of a cross-partition sample. masses[k] belongs to
// partition first+k. Any unreachable node fails the probe whole.
func (s *mapState) probe(name string, first, last int, lo, hi float64) (masses []float64, total int, totalMass float64, err error) {
	counts := make([]int, last-first+1)
	masses = make([]float64, last-first+1)
	err = s.scatter(first, last, func(ctx context.Context, i int) error {
		s.requests[i].Inc()
		clo, chi, _ := s.m.Clip(i, lo, hi)
		c, m, err := s.conns[i].RangeStats(ctx, name, clo, chi)
		counts[i-first], masses[i-first] = c, m
		return err
	})
	if err != nil {
		return nil, 0, 0, err
	}
	for k := range counts {
		total += counts[k]
		totalMass += masses[k]
	}
	return masses, total, totalMass, nil
}

// RangeStats sums the in-range (count, mass) probes of every overlapping
// partition — the same numbers a single node holding the union would
// report.
func (r *Router) RangeStats(dataset string, lo, hi float64) (int, float64, error) {
	if !(lo <= hi) { // inverted, or a NaN bound
		return 0, 0, server.ErrInvalidRange
	}
	s, name, err := r.begin(dataset)
	if err != nil {
		return 0, 0, err
	}
	defer s.release()
	first, last := s.m.Overlap(lo, hi)
	if first > last {
		return 0, 0, nil
	}
	_, total, totalMass, err := s.probe(name, first, last, lo, hi)
	return total, totalMass, err
}

// split groups items by owning partition. A key outside the map's
// coverage is a routing error surfaced as ErrInvalidRange (the cluster
// equivalent of a key the deployment cannot store).
func (s *mapState) split(items []server.Item) (map[int][]server.Item, error) {
	groups := make(map[int][]server.Item)
	for _, it := range items {
		i := s.m.Route(it.Key)
		if i < 0 {
			return nil, fmt.Errorf("%w: key %v outside the partition map's coverage [%v, %v]",
				server.ErrInvalidRange, it.Key, s.m.At(0).Lo, s.m.At(s.m.Len()-1).Hi)
		}
		groups[i] = append(groups[i], it)
	}
	return groups, nil
}

// mutate applies one per-partition operation for every group
// concurrently and sums the applied counts. Partitions fail
// independently: the returned count is what the reachable partitions
// applied, and the error (wrapping server.ErrUnavailable per failed
// partition) reports the rest — partial scatter failure never loses the
// other partitions' results.
func mutate[T any](s *mapState, groups map[int][]T, op func(ctx context.Context, c client.Conn, part []T) (int, error)) (int, error) {
	var mu sync.Mutex
	var wg sync.WaitGroup
	applied := 0
	var errs []error
	for i, part := range groups {
		s.requests[i].Inc()
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := s.callCtx()
			defer cancel()
			n, err := op(ctx, s.conns[i], part)
			mu.Lock()
			defer mu.Unlock()
			applied += n
			if err != nil {
				errs = append(errs, s.wrap(i, err))
			}
		}()
	}
	wg.Wait()
	return applied, errors.Join(errs...)
}

// Insert is InsertAsync plus a wait.
func (r *Router) Insert(dataset string, items []server.Item) (int, error) {
	return r.insertWait.Do(func(done server.InsertReply) error {
		return r.InsertAsync(dataset, items, done)
	})
}

// InsertAsync routes each item to the partition owning its key and applies
// the per-partition batches in parallel, under the Backend async contract
// (an empty batch answers inline; an unroutable key is a synchronous
// routing error).
func (r *Router) InsertAsync(dataset string, items []server.Item, done server.InsertReply) error {
	if len(items) == 0 {
		done.Deliver(0, nil)
		return nil
	}
	s, name, err := r.begin(dataset)
	if err != nil {
		return err
	}
	groups, err := s.split(items)
	if err != nil {
		s.release()
		return err
	}
	go func() {
		defer s.release()
		done.Deliver(mutate(s, groups, func(ctx context.Context, c client.Conn, part []server.Item) (int, error) {
			return c.InsertItems(ctx, name, part)
		}))
	}()
	return nil
}

// Delete routes each key to its owning partition and applies the
// per-partition batches in parallel. Keys outside the map's coverage
// cannot be stored anywhere, so they are skipped rather than rejected —
// deleting the absent is a no-op on a single node too. A NaN key is
// rejected, as a single node rejects it.
func (r *Router) Delete(dataset string, keys []float64) (int, error) {
	s, name, err := r.begin(dataset)
	if err != nil {
		return 0, err
	}
	defer s.release()
	groups := make(map[int][]float64)
	for _, k := range keys {
		if k != k {
			return 0, fmt.Errorf("%w: NaN key", server.ErrInvalidRange)
		}
		if i := s.m.Route(k); i >= 0 {
			groups[i] = append(groups[i], k)
		}
	}
	return mutate(s, groups, func(ctx context.Context, c client.Conn, part []float64) (int, error) {
		return c.Delete(ctx, name, part)
	})
}

// Update routes each re-weight to the partition owning its key.
func (r *Router) Update(dataset string, items []server.Item) (int, error) {
	s, name, err := r.begin(dataset)
	if err != nil {
		return 0, err
	}
	defer s.release()
	groups, err := s.split(items)
	if err != nil {
		return 0, err
	}
	return mutate(s, groups, func(ctx context.Context, c client.Conn, part []server.Item) (int, error) {
		return c.Update(ctx, name, part)
	})
}

// Snapshot answers ErrNotDurable: durability is per node, owned by each
// node's own WAL and snapshot cycle, not orchestrated through the router.
func (r *Router) Snapshot(dataset string) (server.SnapshotInfo, error) {
	if _, err := r.Resolve(dataset); err != nil {
		return server.SnapshotInfo{}, err
	}
	return server.SnapshotInfo{}, server.ErrNotDurable
}

// Stats polls every node and merges their per-dataset stats into one
// cluster view: sizes, masses, and counters sum; key bounds take the
// cluster-wide min and max. Unreachable nodes are skipped — stats are
// observability, and a partial view beats none — but each skip counts a
// partition failure. As a side effect the partition map's cached
// (count, mass) figures refresh, so a periodic Stats call doubles as the
// map refresh loop.
func (r *Router) Stats() server.Stats {
	s := r.acquire()
	if s == nil {
		return server.Stats{}
	}
	defer s.release()
	n := s.m.Len()
	nodeStats := make([]*server.Stats, n)
	_ = s.scatter(0, n-1, func(ctx context.Context, i int) error {
		s.requests[i].Inc()
		st, err := s.conns[i].Stats(ctx)
		if err != nil {
			return err
		}
		nodeStats[i] = &st
		return nil
	})
	now := time.Now()
	merged := make(map[string]*server.DatasetStats)
	var order []string
	for i, st := range nodeStats {
		if st == nil {
			continue
		}
		partKeys, partMass := 0, 0.0
		for _, ds := range st.Datasets {
			partKeys += ds.Len
			partMass += ds.Mass
			dst, ok := merged[ds.Name]
			if !ok {
				cp := ds
				cp.Durable = false // cluster-level snapshots are not a thing
				cp.Persist = nil
				merged[ds.Name] = &cp
				order = append(order, ds.Name)
				continue
			}
			mergeDatasetStats(dst, ds)
		}
		s.m.Update(i, partKeys, partMass, now)
	}
	sort.Strings(order)
	out := server.Stats{Datasets: make([]server.DatasetStats, 0, len(order))}
	for _, name := range order {
		out.Datasets = append(out.Datasets, *merged[name])
	}
	return out
}

// mergeDatasetStats folds one node's view of a dataset into the cluster
// aggregate.
func mergeDatasetStats(dst *server.DatasetStats, ds server.DatasetStats) {
	dst.Len += ds.Len
	dst.Shards += ds.Shards
	dst.Mass += ds.Mass
	if v, ok := ds.MinKey.(float64); ok {
		if cur, ok := dst.MinKey.(float64); !ok || v < cur {
			dst.MinKey = v
		}
	}
	if v, ok := ds.MaxKey.(float64); ok {
		if cur, ok := dst.MaxKey.(float64); !ok || v > cur {
			dst.MaxKey = v
		}
	}
	dst.SampleRequests += ds.SampleRequests
	dst.SampleRejected += ds.SampleRejected
	dst.SampleBatches += ds.SampleBatches
	dst.SamplesReturned += ds.SamplesReturned
	if ds.MaxCoalesced > dst.MaxCoalesced {
		dst.MaxCoalesced = ds.MaxCoalesced
	}
	dst.InsertRequests += ds.InsertRequests
	dst.InsertRejected += ds.InsertRejected
	dst.InsertBatches += ds.InsertBatches
	dst.ItemsInserted += ds.ItemsInserted
	dst.DeleteRequests += ds.DeleteRequests
	dst.KeysDeleted += ds.KeysDeleted
	dst.UpdateRequests += ds.UpdateRequests
	dst.KeysUpdated += ds.KeysUpdated
}

// AppendMetrics appends the router's Prometheus exposition: the partition
// count, the map generation, per-partition upstream request and failure
// counters, and the last refreshed per-partition key/mass figures.
// Per-partition counters are scoped to the current generation; a SetMap
// resets them like a process restart would.
func (r *Router) AppendMetrics(dst []byte) []byte {
	s := r.acquire()
	if s == nil {
		return dst
	}
	defer s.release()
	b := metrics.NewBuilder(dst)
	n := s.m.Len()
	b.Family("irsd_cluster_partitions", "Partitions in the routing map.", "gauge")
	b.Val("irsd_cluster_partitions", float64(n))
	b.Family("irsd_cluster_map_epoch", "Partition-map generation (1 = boot map, +1 per applied reload).", "gauge")
	b.Val("irsd_cluster_map_epoch", float64(s.epoch))
	b.Family("irsd_cluster_partition_requests_total", "Upstream requests routed to each partition's node.", "counter")
	for i := 0; i < n; i++ {
		b.Val("irsd_cluster_partition_requests_total", float64(s.requests[i].Load()),
			"partition", strconv.Itoa(i), "addr", s.m.At(i).Addr)
	}
	b.Family("irsd_cluster_partition_failures_total", "Upstream requests that found the node unreachable.", "counter")
	for i := 0; i < n; i++ {
		b.Val("irsd_cluster_partition_failures_total", float64(s.failures[i].Load()),
			"partition", strconv.Itoa(i), "addr", s.m.At(i).Addr)
	}
	b.Family("irsd_cluster_partition_keys", "Keys per partition at the last stats refresh.", "gauge")
	for i := 0; i < n; i++ {
		c, _, _ := s.m.Cached(i)
		b.Val("irsd_cluster_partition_keys", float64(c),
			"partition", strconv.Itoa(i), "addr", s.m.At(i).Addr)
	}
	b.Family("irsd_cluster_partition_mass", "Sampling mass per partition at the last stats refresh.", "gauge")
	for i := 0; i < n; i++ {
		_, m, _ := s.m.Cached(i)
		b.Val("irsd_cluster_partition_mass", m,
			"partition", strconv.Itoa(i), "addr", s.m.At(i).Addr)
	}
	return b.Bytes()
}

// Close closes every node connection of the current generation and stops
// the router: later requests answer ErrShuttingDown. Requests in flight
// fail as their connections close — Close is terminal, not a drain; the
// graceful path is the owning process draining its listeners first.
func (r *Router) Close() error {
	r.setMu.Lock()
	defer r.setMu.Unlock()
	s := r.cur.Swap(nil)
	if s == nil {
		return nil
	}
	err := s.closeConns()
	s.release()
	return err
}
