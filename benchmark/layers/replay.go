package layers

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"path/filepath"
	"time"

	irs "github.com/irsgo/irs"
	"github.com/irsgo/irs/benchmark/loadgen"
	"github.com/irsgo/irs/client"
	"github.com/irsgo/irs/internal/cluster"
	"github.com/irsgo/irs/internal/persist"
	srv "github.com/irsgo/irs/internal/server"
	"github.com/irsgo/irs/internal/wire"
	"github.com/irsgo/irs/server"
	"github.com/irsgo/irs/server/irsnet"
)

// Roots a replay can be asked to budget: the transport the workload's
// requests arrive on.
const (
	RootIrsnet  = "irsnet.roundtrip"
	RootHTTP    = "http.roundtrip"
	RootCluster = "cluster.route"
)

// Layer indices. Every layer is replayed for every workload, so every
// per-layer metric exists on every workload; Root only selects which chain
// is the workload's budget.
const (
	lIrsnet = iota
	lHTTP
	lCluster
	lNode
	lCore
	lDraw
	lBinCodec
	lJSONCodec
	lWeighted
	lInsert
	lDelete
	lStage
	lWait
	numLayers
)

var layerNames = [numLayers]string{
	lIrsnet: RootIrsnet, lHTTP: RootHTTP, lCluster: RootCluster, lNode: "cluster.node",
	lCore: "core.sample", lDraw: "shard.draw", lBinCodec: "wire.bin_codec", lJSONCodec: "wire.json_codec",
	lWeighted: "weighted.draw", lInsert: "shard.insert", lDelete: "shard.delete",
	lStage: "persist.stage", lWait: "persist.wait_durable",
}

// Config describes one replay.
type Config struct {
	Workload string
	Seed     uint64
	Root     string          // RootIrsnet, RootHTTP or RootCluster
	Keys     []float64       // the workload's sorted keys
	Queries  []loadgen.Query // the first requests of the workload's stream
	Shards   int             // as the daemons' -shards
	Window   time.Duration   // as the daemons' -coalesce-window default
	Dir      string          // scratch directory for the WAL
}

// Result is what a replay measured.
type Result struct {
	Metrics map[string]float64 // per-layer metrics, by name
	File    File
}

const (
	dataset   = "bench"
	writeKeys = 8  // keys per replayed write, as the mixed workload's
	warmup    = 50 // requests replayed through every layer before recording
	ohBlock   = 50 // requests per block of the overhead comparison
	ohBlocks  = 6  // blocks per side
	callLimit = 10 * time.Second
)

// stack is every layer of the system built in this process over one set
// of keys: the engine bare, the serving core over it, both transports over
// a public server over it (all sharing one structure, as one daemon
// would), a weighted engine, a two-node cluster behind a router, and a WAL.
type stack struct {
	eng    *irs.Concurrent[float64]
	weng   *irs.WeightedConcurrent[float64]
	core   *srv.Core[float64]
	tcp    *irsnet.Client
	jsonc  *server.Client
	pmap   *cluster.Map
	conns  []client.Conn // conns[i] reaches the node of partition i
	router *cluster.Router
	store  *persist.Store[float64]

	closers []func()
}

func (st *stack) close() {
	for i := len(st.closers) - 1; i >= 0; i-- {
		st.closers[i]()
	}
}

// build assembles the stack; on error whatever was started is stopped.
func build(cfg Config) (st *stack, err error) {
	st = &stack{}
	defer func() {
		if err != nil {
			st.close()
		}
	}()
	if st.eng, err = irs.NewConcurrentFromSortedSeeded(cfg.Keys, cfg.Shards, 1); err != nil {
		return nil, fmt.Errorf("layers: engine: %w", err)
	}
	items := make([]irs.WeightedItem[float64], len(cfg.Keys))
	for i, k := range cfg.Keys {
		items[i] = irs.WeightedItem[float64]{Key: k, Weight: 1 + math.Mod(k, 1)}
	}
	if st.weng, err = irs.NewWeightedConcurrentFromSortedItems(items, cfg.Shards, 1); err != nil {
		return nil, fmt.Errorf("layers: weighted engine: %w", err)
	}
	scfg := server.Config{CoalesceWindow: cfg.Window}
	st.core = srv.NewCore[float64](scfg)
	st.closers = append(st.closers, func() { _ = st.core.Close() })
	if err = st.core.Add(dataset, srv.NewUnweightedDataset(st.eng)); err != nil {
		return nil, fmt.Errorf("layers: core: %w", err)
	}
	node, stop, err := serveNode(scfg, st.eng)
	if err != nil {
		return nil, err
	}
	st.closers = append(st.closers, stop)
	st.tcp = irsnet.NewClient(node.tcp, irsnet.Options{})
	st.jsonc = server.NewClient("http://" + node.http)
	st.closers = append(st.closers, func() { _ = st.tcp.Close(); _ = st.jsonc.Close() })

	// A two-node cluster split at the median key, reached as irsrouter
	// reaches its nodes by default: binary frames over HTTP.
	split := len(cfg.Keys) / 2
	parts := []cluster.Partition{
		{Lo: math.Inf(-1), Hi: cfg.Keys[split]},
		{Lo: cfg.Keys[split], Hi: math.Inf(1)},
	}
	st.conns = make([]client.Conn, 2)
	for i, half := range [][]float64{cfg.Keys[:split], cfg.Keys[split:]} {
		h, err := irs.NewConcurrentFromSortedSeeded(half, cfg.Shards, 1)
		if err != nil {
			return nil, fmt.Errorf("layers: cluster node %d: %w", i, err)
		}
		nd, stop, err := serveNode(scfg, h)
		if err != nil {
			return nil, err
		}
		st.closers = append(st.closers, stop)
		parts[i].Addr = nd.http
		if st.conns[i], err = client.Dial(nd.http, client.EncodingBinary); err != nil {
			return nil, fmt.Errorf("layers: cluster node %d: %w", i, err)
		}
	}
	if st.pmap, err = cluster.New(parts); err != nil {
		return nil, fmt.Errorf("layers: cluster map: %w", err)
	}
	if st.router, err = cluster.NewRouter(st.pmap, st.conns, cluster.Options{Datasets: []string{dataset}, Seed: 1, Timeout: callLimit}); err != nil {
		return nil, fmt.Errorf("layers: router: %w", err)
	}
	st.closers = append(st.closers, func() { _ = st.router.Close() }) // closes conns

	if st.store, _, err = persist.Open(filepath.Join(cfg.Dir, "wal"), persist.Float64Keys(), persist.Options{Sync: persist.SyncAlways}); err != nil {
		return nil, fmt.Errorf("layers: store: %w", err)
	}
	st.closers = append(st.closers, func() { _ = st.store.Close() })
	return st, nil
}

// Run builds every layer in this process over cfg.Keys and replays
// cfg.Queries through each, one request at a time.
func Run(cfg Config) (*Result, error) {
	n := len(cfg.Queries)
	if n <= warmup {
		return nil, fmt.Errorf("layers: %d requests, need more than %d", n, warmup)
	}
	var root int
	switch cfg.Root {
	case RootIrsnet:
		root = lIrsnet
	case RootHTTP:
		root = lHTTP
	case RootCluster:
		root = lCluster
	default:
		return nil, fmt.Errorf("layers: unknown root %q", cfg.Root)
	}
	st, err := build(cfg)
	if err != nil {
		return nil, err
	}
	defer st.close()

	// Parent layers: the workload's transport owns the core span.
	parent := make([]int, numLayers)
	for i := range parent {
		parent[i] = -1
	}
	transport := lIrsnet
	if root == lHTTP {
		transport = lHTTP
	}
	parent[lCore], parent[lDraw] = transport, lCore
	parent[lBinCodec], parent[lJSONCodec], parent[lNode] = lIrsnet, lHTTP, lCluster

	rec := newRecorder(n, layerNames[:], parent)
	ctx := context.Background()
	rng := irs.NewRNG(cfg.Seed)
	var (
		buf     []float64
		frame   []byte
		fresh   = make([]float64, writeKeys)
		entries = make([]persist.Entry[float64], writeKeys)
		samples int64
	)
	// request replays request i through one layer. The first error sticks.
	request := func(layer, i int) {
		q := cfg.Queries[i]
		var e error
		switch layer {
		case lIrsnet:
			rec.time(layer, i, func() {
				c, cancel := context.WithTimeout(ctx, callLimit)
				buf, e = st.tcp.SampleAppend(c, dataset, buf[:0], q.Lo, q.Hi, q.T)
				cancel()
			})
		case lHTTP:
			rec.time(layer, i, func() {
				c, cancel := context.WithTimeout(ctx, callLimit)
				buf, e = st.jsonc.SampleAppend(c, dataset, buf[:0], q.Lo, q.Hi, q.T)
				cancel()
			})
		case lCluster:
			rec.time(layer, i, func() { buf, e = st.router.SampleAppend(dataset, buf[:0], q.Lo, q.Hi, q.T) })
		case lNode:
			e = slowestNode(ctx, rec, i, st.pmap, st.conns, q, &buf)
		case lCore:
			rec.time(layer, i, func() { buf, e = st.core.SampleAppend(dataset, buf[:0], q.Lo, q.Hi, q.T) })
		case lDraw:
			rec.time(layer, i, func() { buf, e = st.eng.SampleAppend(buf[:0], q.Lo, q.Hi, q.T, rng) })
			samples += int64(len(buf))
		case lWeighted:
			rec.time(layer, i, func() { buf, e = st.weng.SampleAppend(buf[:0], q.Lo, q.Hi, q.T, rng) })
		case lBinCodec:
			// buf holds the request's samples from the draw before it.
			rec.time(layer, i, func() { frame, e = binCodec(frame, q, &buf) })
		case lJSONCodec:
			rec.time(layer, i, func() { e = jsonCodec(q, buf) })
		case lInsert:
			for j := range fresh {
				fresh[j] = rng.Float64Range(0, loadgen.KeySpan)
			}
			rec.time(layer, i, func() { st.eng.InsertBatch(fresh) })
		case lDelete:
			removed := 0
			rec.time(layer, i, func() { removed = st.eng.DeleteBatch(fresh) })
			if removed != writeKeys {
				e = fmt.Errorf("removed %d of %d keys just inserted", removed, writeKeys)
			}
		case lStage:
			for j, k := range fresh {
				entries[j] = persist.Entry[float64]{Key: k, Weight: 1}
			}
			var ticket persist.Ticket
			rec.time(lStage, i, func() { ticket, e = st.store.StageInsert(entries) })
			if e == nil {
				rec.time(lWait, i, func() { e = st.store.WaitDurable(ticket) })
			}
		}
		if err == nil && e != nil {
			err = fmt.Errorf("layers: %s, request %d: %w", layerNames[layer], i, e)
		}
	}
	// Order matters twice: the codecs reuse the samples the draw left in
	// buf, and delete removes the keys insert added so n stays level.
	order := []int{lIrsnet, lHTTP, lCluster, lNode, lCore, lWeighted, lDraw, lBinCodec, lJSONCodec, lInsert, lDelete, lStage}
	rec.on = false
	for i := 0; i < warmup && err == nil; i++ {
		for _, l := range order {
			request(l, i)
		}
	}
	samples = 0
	rec.on = true
	for i := 0; i < n && err == nil; i++ {
		for _, l := range order {
			request(l, i)
		}
	}
	if err != nil {
		return nil, err
	}

	mean := rec.meanMicros
	perSample := 1e3 * float64(n) / float64(samples) // mean us per request -> ns per sample
	m := map[string]float64{
		"shard.draw_us":               mean(lDraw),
		"shard.draw_ns_per_sample":    mean(lDraw) * perSample,
		"weighted.draw_ns_per_sample": mean(lWeighted) * perSample,
		"shard.insert_us_per_key":     mean(lInsert) / writeKeys,
		"shard.delete_us_per_key":     mean(lDelete) / writeKeys,
		"coalescer.self_us":           mean(lCore) - mean(lDraw),
		"wire.bin_codec_us":           mean(lBinCodec),
		"wire.json_codec_us":          mean(lJSONCodec),
		"persist.stage_us":            mean(lStage),
		"persist.wait_durable_us":     mean(lWait),
		"irsnet.self_us":              mean(lIrsnet) - mean(lCore) - mean(lBinCodec),
		"http.self_us":                mean(lHTTP) - mean(lCore) - mean(lJSONCodec),
		"cluster.self_us":             mean(lCluster) - mean(lNode),
		"cluster.node_us":             mean(lNode),
		"trace.total_us":              mean(root),
	}
	inner := []Budget{{"core.sample (coalescer)", m["coalescer.self_us"]}, {"shard.draw", m["shard.draw_us"]}}
	var budget []Budget
	switch root {
	case lIrsnet:
		budget = append([]Budget{{RootIrsnet, m["irsnet.self_us"]}, {"wire.bin_codec", m["wire.bin_codec_us"]}}, inner...)
	case lHTTP:
		budget = append([]Budget{{RootHTTP, m["http.self_us"]}, {"wire.json_codec", m["wire.json_codec_us"]}}, inner...)
	case lCluster:
		budget = []Budget{{RootCluster, m["cluster.self_us"]}, {"cluster.node", m["cluster.node_us"]}}
	}
	res := &Result{Metrics: m, File: File{
		Workload: cfg.Workload, Seed: cfg.Seed, Requests: n, Root: cfg.Root,
		TotalUS: m["trace.total_us"], Budget: budget, Spans: rec.spans,
	}}

	// Tracing overhead: the root replayed in alternating blocks with span
	// recording on and off, into a recorder of its own so the spans above
	// stay as they were measured.
	rec = newRecorder(n, layerNames[:], parent)
	var on, off time.Duration
	for b := 0; b < 2*ohBlocks && err == nil; b++ {
		rec.on = b%2 == 0
		start := time.Now()
		for i := 0; i < ohBlock; i++ {
			request(root, warmup+(b/2*ohBlock+i)%(n-warmup))
		}
		if rec.on {
			on += time.Since(start)
		} else {
			off += time.Since(start)
		}
	}
	if err != nil {
		return nil, err
	}
	m["trace.overhead_pct"] = 100 * (float64(on) - float64(off)) / float64(off)
	return res, nil
}

// addrs are the loopback addresses of one in-process node.
type addrs struct{ http, tcp string }

// serveNode serves eng as dataset "bench" the way irsd does — one public
// server behind an HTTP listener and an irsnet listener, both on
// kernel-assigned loopback ports — and returns how to stop it.
func serveNode(cfg server.Config, eng *irs.Concurrent[float64]) (addrs, func(), error) {
	s := server.New(cfg)
	if err := s.AddUnweighted(dataset, eng); err != nil {
		return addrs{}, nil, fmt.Errorf("layers: node: %w", err)
	}
	hln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return addrs{}, nil, fmt.Errorf("layers: node: %w", err)
	}
	tln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = hln.Close()
		return addrs{}, nil, fmt.Errorf("layers: node: %w", err)
	}
	hs := &http.Server{Handler: s}
	ts := irsnet.NewServer(s)
	done := make(chan struct{}, 2)
	go func() { _ = hs.Serve(hln); done <- struct{}{} }()
	go func() { _ = ts.Serve(tln); done <- struct{}{} }()
	stop := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = hs.Shutdown(ctx)
		_ = ts.Shutdown(ctx)
		<-done
		<-done
		_ = s.Close()
	}
	return addrs{http: hln.Addr().String(), tcp: tln.Addr().String()}, stop, nil
}

// slowestNode replays what the router asks of its nodes for q — the
// request verbatim when one partition overlaps, otherwise a clipped range
// probe and a clipped sub-sample per overlapping partition — and records
// the slowest node's time as the request's cluster.node span: a spanning
// request waits for the slower of its nodes.
func slowestNode(ctx context.Context, rec *recorder, req int, m *cluster.Map, conns []client.Conn, q loadgen.Query, buf *[]float64) error {
	ctx, cancel := context.WithTimeout(ctx, callLimit)
	defer cancel()
	first, last := m.Overlap(q.Lo, q.Hi)
	if first == last {
		var err error
		rec.time(lNode, req, func() { *buf, err = conns[first].SampleAppend(ctx, dataset, (*buf)[:0], q.Lo, q.Hi, q.T) })
		return err
	}
	type leg struct {
		lo, hi      float64
		count       int
		start, took time.Duration
	}
	legs := make([]leg, 0, 2)
	total := 0
	for i := first; i <= last; i++ {
		lo, hi, ok := m.Clip(i, q.Lo, q.Hi)
		if !ok {
			continue
		}
		start := time.Since(rec.t0)
		count, _, err := conns[i].RangeStats(ctx, dataset, lo, hi)
		if err != nil {
			return err
		}
		legs = append(legs, leg{lo: lo, hi: hi, count: count, start: start, took: time.Since(rec.t0) - start})
		total += count
	}
	slow := 0
	for j := range legs {
		l := &legs[j]
		if l.count == 0 {
			continue
		}
		// The router splits t multinomially by mass; its expectation is
		// the share replayed here.
		t := max(1, int(math.Round(float64(q.T)*float64(l.count)/float64(total))))
		start := time.Now()
		var err error
		if *buf, err = conns[first+j].SampleAppend(ctx, dataset, (*buf)[:0], l.lo, l.hi, t); err != nil {
			return err
		}
		l.took += time.Since(start)
		if l.took > legs[slow].took {
			slow = j
		}
	}
	if rec.on {
		// The probe and the sub-sample are not adjacent in time; the span
		// starts at the probe and carries their summed duration.
		rec.put(lNode, req, legs[slow].start, legs[slow].start+legs[slow].took)
	}
	return nil
}

// binCodec encodes and decodes q's request frame and the response frame
// carrying *samples, once each — the codec work of one binary request.
func binCodec(frame []byte, q loadgen.Query, samples *[]float64) ([]byte, error) {
	frame, err := wire.EncodeSampleRequest(frame[:0], wire.SampleReq{Dataset: dataset, Lo: q.Lo, Hi: q.Hi, T: q.T})
	if err != nil {
		return frame, err
	}
	if _, err := wire.DecodeSampleRequestRaw(frame); err != nil {
		return frame, err
	}
	frame = wire.EncodeSampleResponse(frame[:0], *samples)
	*samples, err = wire.DecodeSampleResponse(frame, (*samples)[:0])
	return frame, err
}

// jsonCodec is binCodec for the JSON bodies of the HTTP transport.
func jsonCodec(q loadgen.Query, samples []float64) error {
	body, err := json.Marshal(server.SampleRequest{Dataset: dataset, Lo: q.Lo, Hi: q.Hi, T: q.T})
	if err != nil {
		return err
	}
	var req server.SampleRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return err
	}
	if body, err = json.Marshal(server.SampleResponse{Dataset: dataset, Samples: samples}); err != nil {
		return err
	}
	var resp server.SampleResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return err
	}
	if len(resp.Samples) != len(samples) {
		return errors.New("json codec: sample count changed in round trip")
	}
	return nil
}
