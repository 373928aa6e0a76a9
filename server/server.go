// Package server is irsd's HTTP/JSON serving layer over the concurrent IRS
// structures: an embeddable http.Handler plus a typed client. The heavy
// lifting — request coalescing into SampleMany/InsertBatch, bounded-queue
// admission control, graceful drain, live stats — lives in the transport-
// agnostic core (internal/server); this package speaks JSON over four
// endpoints and maps the core's typed errors to wire codes:
//
//	POST /sample   {"dataset":"d","lo":0,"hi":9,"t":3}  -> {"dataset":"d","samples":[...]}
//	POST /insert   {"dataset":"d","keys":[1,2]}          -> {"dataset":"d","inserted":2}
//	               {"dataset":"w","items":[{"key":1,"weight":2.5}]}
//	POST /delete   {"dataset":"d","keys":[1,2]}          -> {"dataset":"d","removed":2}
//	POST /update   {"dataset":"w","items":[{"key":1,"weight":9}]} -> {"dataset":"w","updated":1}
//	POST /snapshot {"dataset":"d"}                       -> {"dataset":"d","seq":3,"items":1000}
//	GET  /stats                                          -> {"datasets":[...]}
//
// Datasets registered through the durable constructors (AddDurable*) write
// every mutation ahead to a per-dataset WAL and serve /snapshot; see
// durable.go and internal/persist.
//
// The dataset field may be omitted when exactly one dataset is registered.
// Errors arrive as {"error":{"code":"...","message":"..."}} with the
// status codes listed at errCodeStatus; the typed client converts codes
// back into the exported sentinel errors, so errors.Is works end to end.
//
// Keys on the wire are float64 (JSON numbers). Server coalescing preserves
// the IRS contract — per-sample uniformity and independence across
// coalesced requests — verified through the full HTTP stack by this
// package's chi-square and independence suites.
//
// The two hot endpoints, /sample and /insert, additionally speak a compact
// binary format negotiated per request via Content-Type:
// application/x-irs-bin (see binary.go for the frame layout); the typed
// client opts in with Client.Binary. Both encodings return bit-identical
// sample streams for a fixed daemon seed and request sequence, and errors
// keep the JSON envelope either way.
package server

import (
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"strings"
	"time"

	irs "github.com/irsgo/irs"
	srv "github.com/irsgo/irs/internal/server"
	"github.com/irsgo/irs/internal/wire"
)

// Config holds the admission-control and coalescing knobs, applied per
// dataset and per path: QueueDepth (pending-request bound; full queues
// answer 503 overloaded), MaxBatch (requests per coalesced backend call),
// Flushers (parallel backend calls in flight), and the deprecated
// CoalesceWindow (an opt-in linger for batch-mates; the zero value batches
// only what queued while the flushers were busy and adds no latency). Zero
// values take the core's defaults.
type Config = srv.Config

// Stats and DatasetStats are the /stats payload; ServerInfo is its
// build/identity block (version, Go toolchain, uptime).
type (
	Stats        = srv.Stats
	DatasetStats = srv.DatasetStats
	ServerInfo   = srv.ServerInfo
)

// Item is one /insert element; Weight is ignored by unweighted datasets.
type Item = srv.Item[float64]

// The serving errors, re-exported so both embedders and client users can
// errors.Is against one vocabulary.
var (
	ErrUnknownDataset   = srv.ErrUnknownDataset
	ErrAmbiguousDataset = srv.ErrAmbiguousDataset
	ErrDuplicateDataset = srv.ErrDuplicateDataset
	ErrInvalidRange     = srv.ErrInvalidRange
	ErrInvalidCount     = srv.ErrInvalidCount
	ErrInvalidWeight    = srv.ErrInvalidWeight
	ErrEmptyRange       = srv.ErrEmptyRange
	ErrOverloaded       = srv.ErrOverloaded
	ErrShuttingDown     = srv.ErrShuttingDown
	ErrNotWeighted      = srv.ErrNotWeighted
	ErrNotDurable       = srv.ErrNotDurable
	ErrUnavailable      = srv.ErrUnavailable
)

// ErrProxy rejects dataset registration on a proxy Server (NewProxy):
// proxies have no local core to register into — datasets live on the nodes
// behind the backend.
var ErrProxy = errors.New("server: proxy servers cannot register datasets")

// maxBodyBytes bounds request bodies; a megabyte-scale insert batch is the
// intended granularity, anything larger should arrive as several requests.
const maxBodyBytes = 8 << 20

// Backend is the request-serving surface the transport layers (this
// package's HTTP handlers and server/irsnet's TCP dispatch) are written
// against. The local serving core (*internal/server.Core[float64])
// satisfies it directly; a cluster router (internal/cluster.Router)
// satisfies it by fanning requests out to the nodes owning each key range.
// Everything transport-specific — encodings, wire codes, probes, pooled
// buffers — stays above this line, so irsrouter serves the exact protocols
// irsd does without duplicating a handler.
//
// The two coalesced operations, sample and insert, exist in one form only —
// asynchronous — so a backend writes each once. Their contract is
// internal/server.Reply's: validation, routing, and admission errors
// (ErrInvalidRange, ErrUnknownDataset, ErrOverloaded, ...) return
// synchronously and done never runs; on a nil return done.Deliver runs
// exactly once with the samples appended to dst, or the stored count, or
// the error (an empty insert is answered inline); and Close drains, so
// every accepted request is still answered. irsnet's reader hands in a
// Reply that encodes the response; the HTTP handlers, which want the
// answer as a return value, wait on the same call through srv.Blocking.
// The remaining methods are rare or cheap enough to block their caller.
// Stats omits the ServerInfo block (the transport layer that knows the
// process identity fills it in).
type Backend interface {
	SampleAppendAsync(dataset string, dst []float64, lo, hi float64, t int, done SampleReply) error
	InsertAsync(dataset string, items []Item, done InsertReply) error
	Delete(dataset string, keys []float64) (int, error)
	Update(dataset string, items []Item) (int, error)
	RangeStats(dataset string, lo, hi float64) (count int, mass float64, err error)
	Resolve(dataset string) (string, error)
	Snapshot(dataset string) (SnapshotInfo, error)
	Stats() Stats
	AppendMetrics(dst []byte) []byte
	Close() error
}

// Server is the HTTP serving layer: register datasets (or front a Backend
// via NewProxy), then serve it like any http.Handler. Safe for concurrent
// use once serving has started; AddUnweighted/AddWeighted are intended for
// setup time.
type Server struct {
	core    *srv.Core[float64] // nil on proxy servers
	backend Backend
	mux     *http.ServeMux
	obs     observe
	adm     admin

	// The HTTP handlers answer in their own goroutine, so they wait here.
	sampleWait srv.Blocking[[]float64]
	insertWait srv.Blocking[int]
}

// New returns a Server with no datasets.
func New(cfg Config) *Server {
	core := srv.NewCore[float64](cfg)
	s := newServer(core)
	s.core = core
	return s
}

// NewProxy returns a Server that serves every endpoint against backend
// instead of a local core — the seam cmd/irsrouter fronts the cluster
// router through. Dataset registration (Add*, AddDurable*) is rejected
// with ErrProxy; everything else, including the TCP transport wrapper
// (server/irsnet.New), works unchanged.
func NewProxy(backend Backend) *Server {
	return newServer(backend)
}

func newServer(backend Backend) *Server {
	s := &Server{backend: backend, mux: http.NewServeMux()}
	s.obs.start = time.Now()
	s.mux.HandleFunc("/sample", s.handleSample)
	s.mux.HandleFunc("/insert", s.handleInsert)
	s.mux.HandleFunc("/delete", s.handleDelete)
	s.mux.HandleFunc("/update", s.handleUpdate)
	s.mux.HandleFunc("/rangestats", s.handleRangeStats)
	s.mux.HandleFunc("/snapshot", s.handleSnapshot)
	s.mux.HandleFunc("/stats", s.handleStats)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	s.mux.HandleFunc("/datasets", s.handleDatasets)
	s.mux.HandleFunc("/datasets/", s.handleDatasetItem)
	return s
}

// AddUnweighted registers c under name; samples are uniform over range
// contents and insert weights are ignored.
func (s *Server) AddUnweighted(name string, c *irs.Concurrent[float64]) error {
	if s.core == nil {
		return ErrProxy
	}
	return s.core.Add(name, srv.NewUnweightedDataset(c))
}

// AddWeighted registers w under name; samples are weight-proportional and
// inserts carry validated weights.
func (s *Server) AddWeighted(name string, w *irs.WeightedConcurrent[float64]) error {
	if s.core == nil {
		return ErrProxy
	}
	return s.core.Add(name, srv.NewWeightedDataset(w))
}

// Close stops admitting requests and drains every request accepted so
// far; in-flight requests are answered, then every durable dataset's WAL
// is synced and closed (the returned error joins any store failures).
// Later requests get 503 shutting_down. Call it after the HTTP listener
// has stopped accepting (http.Server.Shutdown) for a fully graceful stop,
// though any order is safe. Close also flips /readyz to draining for
// embedders that never call SetDraining themselves.
func (s *Server) Close() error {
	s.SetDraining()
	return s.backend.Close()
}

// Snapshot takes a point-in-time snapshot of the named durable dataset
// and compacts the WAL segments it covers — the in-process form of the
// /snapshot endpoint, used by irsd's background snapshot loop.
func (s *Server) Snapshot(name string) (SnapshotInfo, error) {
	return s.backend.Snapshot(name)
}

// Delete removes one occurrence of each key from the named dataset — the
// in-process form of /delete, used by the TCP transport's delete frame.
func (s *Server) Delete(dataset string, keys []float64) (int, error) {
	return s.backend.Delete(dataset, keys)
}

// Update sets the weight of one occurrence of each item's key on a
// weighted dataset — the in-process form of /update.
func (s *Server) Update(dataset string, items []Item) (int, error) {
	return s.backend.Update(dataset, items)
}

// RangeStats returns the in-range key count and sampling mass of [lo, hi]
// — the in-process form of /rangestats.
func (s *Server) RangeStats(dataset string, lo, hi float64) (int, float64, error) {
	return s.backend.RangeStats(dataset, lo, hi)
}

// Stats returns the serving snapshot of every dataset with the process
// identity block filled in — the in-process form of GET /stats.
func (s *Server) Stats() Stats {
	st := s.backend.Stats()
	st.Server = s.serverInfo()
	return st
}

// sample and insert are the HTTP handlers' blocking view of the backend's
// two asynchronous operations.
func (s *Server) sample(dataset string, dst []float64, lo, hi float64, t int) ([]float64, error) {
	return s.sampleWait.Do(func(done SampleReply) error {
		return s.backend.SampleAppendAsync(dataset, dst, lo, hi, t, done)
	})
}

func (s *Server) insert(dataset string, items []Item) (int, error) {
	return s.insertWait.Do(func(done InsertReply) error {
		return s.backend.InsertAsync(dataset, items, done)
	})
}

// ServeHTTP implements http.Handler. The four data endpoints are timed
// into the per-encoding request-latency histograms; infrastructure
// endpoints (/stats, /metrics, probes, /snapshot — which has its own
// duration histogram) are not, so scrapes never skew request latency.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case "/sample", "/insert", "/delete", "/update":
		start := time.Now()
		s.mux.ServeHTTP(w, r)
		s.observeRequest(isBinary(r), time.Since(start))
	case "/rangestats", "/snapshot", "/stats", "/metrics", "/healthz", "/readyz", "/datasets":
		s.mux.ServeHTTP(w, r)
	default:
		if strings.HasPrefix(r.URL.Path, "/debug/pprof") {
			s.handlePprof(w, r)
			return
		}
		if strings.HasPrefix(r.URL.Path, "/datasets/") {
			s.mux.ServeHTTP(w, r)
			return
		}
		writeError(w, http.StatusNotFound, "not_found", "no such endpoint: "+r.URL.Path)
	}
}

// resolveName turns a request's dataset field into the name echoed in the
// response. Only the empty name needs resolving (to the sole dataset); an
// explicit name is echoed as-is and validated by the core call itself, so
// the common case costs a single lookup.
func (s *Server) resolveName(name string) (string, error) {
	if name != "" {
		return name, nil
	}
	return s.backend.Resolve("")
}

// isBinary reports whether the request negotiated the binary frames.
func isBinary(r *http.Request) bool {
	ct := r.Header.Get("Content-Type")
	return ct == ContentTypeBinary || strings.HasPrefix(ct, ContentTypeBinary+";")
}

// readFrame reads the whole (bounded) body into the pooled buffer,
// answering the error itself on wrong method or unreadable body.
func readFrame(w http.ResponseWriter, r *http.Request, buf *[]byte) ([]byte, bool) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "method_not_allowed", "use POST")
		return nil, false
	}
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	b := *buf
	if n := r.ContentLength; n > 0 && n <= maxBodyBytes && int64(cap(b)) < n {
		b = make([]byte, 0, n)
	}
	b, err := wire.ReadAllInto(body, b)
	*buf = b
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", "reading body: "+err.Error())
		return nil, false
	}
	return b, true
}

// writeFrame sends a binary response frame.
func writeFrame(w http.ResponseWriter, frame []byte) {
	w.Header().Set("Content-Type", ContentTypeBinary)
	w.Header().Set("Content-Length", strconv.Itoa(len(frame)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(frame)
}

// handleSampleBinary is the hot-path form of /sample: pooled body buffer,
// pooled float64 result buffer appended to by the zero-alloc core, and the
// response frame encoded over the request's own (already decoded) buffer.
func (s *Server) handleSampleBinary(w http.ResponseWriter, r *http.Request) {
	buf := wire.GetBuf()
	defer wire.PutBuf(buf)
	body, ok := readFrame(w, r, buf)
	if !ok {
		return
	}
	req, err := wire.DecodeSampleRequest(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	dst := wire.GetF64()
	defer wire.PutF64(dst)
	samples, err := s.sample(req.Dataset, (*dst)[:0], req.Lo, req.Hi, req.T)
	if err != nil {
		writeCoreError(w, err)
		return
	}
	*dst = samples[:0] // keep any growth for the next request
	// The request frame is fully decoded, so its buffer doubles as the
	// response frame; the (usually larger) grown buffer stays pooled.
	frame := wire.EncodeSampleResponse(body[:0], samples)
	*buf = frame[:0]
	writeFrame(w, frame)
}

// handleInsertBinary is the binary form of /insert: pooled buffers for the
// body, the decoded keys/items, and the response frame.
func (s *Server) handleInsertBinary(w http.ResponseWriter, r *http.Request) {
	buf := wire.GetBuf()
	defer wire.PutBuf(buf)
	body, ok := readFrame(w, r, buf)
	if !ok {
		return
	}
	// Keys decode ahead of items as unit-weight entries of one combined
	// slice — the JSON handler's apply order — so a mixed frame inserts
	// identically over every transport.
	items := wire.GetItems()
	defer wire.PutItems(items)
	name, all, err := wire.DecodeInsertRequestItems(body, (*items)[:0])
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	*items = all[:0]
	n, err := s.insert(string(name), all)
	if err != nil {
		writeCoreError(w, err)
		return
	}
	frame := wire.EncodeInsertResponse(body[:0], n)
	*buf = frame[:0]
	writeFrame(w, frame)
}

func (s *Server) handleSample(w http.ResponseWriter, r *http.Request) {
	if isBinary(r) {
		s.handleSampleBinary(w, r)
		return
	}
	var req SampleRequest
	name, ok := s.readNamed(w, r, &req, &req.Dataset)
	if !ok {
		return
	}
	samples, err := s.sample(name, nil, req.Lo, req.Hi, req.T)
	if err != nil {
		writeCoreError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, SampleResponse{Dataset: name, Samples: samples})
}

func (s *Server) handleInsert(w http.ResponseWriter, r *http.Request) {
	if isBinary(r) {
		s.handleInsertBinary(w, r)
		return
	}
	var req InsertRequest
	name, ok := s.readNamed(w, r, &req, &req.Dataset)
	if !ok {
		return
	}
	items := make([]Item, 0, len(req.Keys)+len(req.Items))
	for _, k := range req.Keys {
		items = append(items, Item{Key: k, Weight: 1})
	}
	items = append(items, req.Items...)
	n, err := s.insert(name, items)
	if err != nil {
		writeCoreError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, InsertResponse{Dataset: name, Inserted: n})
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	var req DeleteRequest
	name, ok := s.readNamed(w, r, &req, &req.Dataset)
	if !ok {
		return
	}
	n, err := s.backend.Delete(name, req.Keys)
	if err != nil {
		writeCoreError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, DeleteResponse{Dataset: name, Removed: n})
}

func (s *Server) handleUpdate(w http.ResponseWriter, r *http.Request) {
	var req UpdateRequest
	name, ok := s.readNamed(w, r, &req, &req.Dataset)
	if !ok {
		return
	}
	n, err := s.backend.Update(name, req.Items)
	if err != nil {
		writeCoreError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, UpdateResponse{Dataset: name, Updated: n})
}

// handleRangeStats answers the in-range (count, mass) probe — stage 1 of
// the cluster router's exact cross-partition multinomial. Binary requests
// carry a rangestats frame (kind 0x06) and get the binary response; JSON
// requests mirror the other endpoints' envelope.
func (s *Server) handleRangeStats(w http.ResponseWriter, r *http.Request) {
	if isBinary(r) {
		buf := wire.GetBuf()
		defer wire.PutBuf(buf)
		body, ok := readFrame(w, r, buf)
		if !ok {
			return
		}
		name, lo, hi, err := wire.DecodeRangeStatsRequest(body)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad_request", err.Error())
			return
		}
		count, mass, err := s.backend.RangeStats(string(name), lo, hi)
		if err != nil {
			writeCoreError(w, err)
			return
		}
		frame := wire.EncodeRangeStatsResponse(body[:0], count, mass)
		*buf = frame[:0]
		writeFrame(w, frame)
		return
	}
	var req RangeStatsRequest
	name, ok := s.readNamed(w, r, &req, &req.Dataset)
	if !ok {
		return
	}
	count, mass, err := s.backend.RangeStats(name, req.Lo, req.Hi)
	if err != nil {
		writeCoreError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, RangeStatsResponse{Dataset: name, Count: count, Mass: mass})
}

func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	var req SnapshotRequest
	name, ok := s.readNamed(w, r, &req, &req.Dataset)
	if !ok {
		return
	}
	info, err := s.backend.Snapshot(name)
	if err != nil {
		writeCoreError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, SnapshotResponse{Dataset: name, Seq: info.Seq, Items: info.Items})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "method_not_allowed", "use GET")
		return
	}
	writeJSON(w, http.StatusOK, s.Stats())
}

// readNamed is readJSON followed by resolveName on the request's dataset
// field, answering either failure itself.
func (s *Server) readNamed(w http.ResponseWriter, r *http.Request, req any, dataset *string) (name string, ok bool) {
	if !readJSON(w, r, req) {
		return "", false
	}
	name, err := s.resolveName(*dataset)
	if err != nil {
		writeCoreError(w, err)
		return "", false
	}
	return name, true
}

// readJSON decodes a strict JSON body into dst, answering the error itself
// (and returning false) on malformed input or a wrong method.
func readJSON(w http.ResponseWriter, r *http.Request, dst any) bool {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "method_not_allowed", "use POST")
		return false
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", "malformed JSON body: "+err.Error())
		return false
	}
	return true
}

func writeCoreError(w http.ResponseWriter, err error) {
	// The code/status mapping lives in internal/wire, shared with the TCP
	// transport so both answer one error vocabulary.
	code, status := wire.ErrCode(err)
	writeError(w, status, code, err.Error())
}

func writeError(w http.ResponseWriter, status int, code, message string) {
	writeJSON(w, status, ErrorResponse{Error: WireError{Code: code, Message: message}})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
