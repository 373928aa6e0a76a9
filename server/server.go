// Package server is irsd's HTTP serving layer over the concurrent IRS
// structures: an embeddable http.Handler plus typed clients. The heavy
// lifting — request coalescing into SampleMany/InsertBatch, bounded-queue
// admission control, graceful drain, live stats — lives in the transport-
// agnostic core (internal/server). Besides the dataset admin (admin.go),
// the probes, /metrics and /debug/pprof/ (observe.go), it serves:
//
//	POST /sample     {"dataset":"d","lo":0,"hi":9,"t":3}  -> {"dataset":"d","samples":[...]}
//	POST /insert     {"dataset":"d","keys":[1,2]}          -> {"dataset":"d","inserted":2}
//	                 {"dataset":"w","items":[{"key":1,"weight":2.5}]}
//	POST /delete     {"dataset":"d","keys":[1,2]}          -> {"dataset":"d","removed":2}
//	POST /update     {"dataset":"w","items":[{"key":1,"weight":9}]} -> {"dataset":"w","updated":1}
//	POST /rangestats {"dataset":"d","lo":0,"hi":9}         -> {"dataset":"d","count":10,"mass":10}
//	POST /snapshot   {"dataset":"d"}                       -> {"dataset":"d","seq":3,"items":1000}
//	GET  /stats                                            -> {"datasets":[...]}
//
// The five data endpoints, /sample to /rangestats, are one path: the frame
// table (frame.go) maps the URL path to its row, the row's codec turns the
// body into one binary frame of internal/wire, ServeFrame answers it, and
// the codec turns the response frame into the body. The codecs are JSON
// (jsoncodec.go) and the frames themselves, sent with Content-Type:
// application/x-irs-bin — any kind, POST /stats too — which server/irsnet
// also carries over TCP and FrameClient speaks. Both give bit-identical
// samples for a fixed daemon seed and request sequence. Every error
// answers in the JSON envelope {"error":{"code":"...","message":"..."}}
// with the status of internal/wire.ErrCode, and the typed clients turn the
// codes back into the exported sentinels, so errors.Is works end to end.
// The dataset field may be omitted when exactly one dataset is registered.
// One request asks for at most 1,048,572 samples (wire.MaxSampleCount),
// the most one response message carries.
//
// Durable datasets (AddDurable) write every mutation ahead to a WAL and
// serve /snapshot; see durable.go. Coalescing preserves the IRS contract —
// per-sample uniformity and independence across coalesced requests —
// verified through the full HTTP stack by this package's chi-square and
// independence suites.
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

// Backend is the request-serving surface the transport layers (this
// package's frame dispatcher, which every codec and carrier goes through)
// are written against. The local serving core (*internal/server.Core[float64])
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
// every accepted request is still answered. The frame dispatcher hands in
// a Reply that encodes the response frame.
// A sample's non-nil stats asks for the range's in-range (count, mass) as
// well, read under the same locks as the samples and filled before done
// runs; a range without sampling mass then answers no samples and mass 0
// rather than ErrEmptyRange (wire frame kind 0x07 carries such requests).
// The remaining methods are rare or cheap enough to block their caller.
// Stats omits the ServerInfo block (the transport layer that knows the
// process identity fills it in).
type Backend interface {
	SampleAppendAsync(dataset string, dst []float64, lo, hi float64, t int, stats *SampleStats, done SampleReply) error
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

// SampleReply and InsertReply receive the answers of the Backend's two
// asynchronous operations, under the contract stated at Backend. Deliver
// runs on a serving-core flusher goroutine and must not block for long — it
// is inside the flush loop that answers every other coalesced request in
// the batch. Implementations meant for hot paths should be pooled
// pointer-structs: a pointer already on the heap boxes into the interface
// without allocating.
type (
	SampleReply = srv.Reply[[]float64]
	InsertReply = srv.Reply[int]
)

// SampleStats is the in-range (count, mass) a sample request may ask for
// alongside its samples, read under the same locks as the draws; see
// Backend.
type SampleStats = srv.SampleStats

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
	names   internTable // dataset names decoded off frames

	// The HTTP carrier answers in the handler's goroutine, so it waits here.
	frameWait srv.Blocking[*[]byte]
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
// router through. Dataset registration (Add*) is rejected
// with ErrProxy; everything else, including the TCP transport wrapper
// (server/irsnet.NewServer), works unchanged.
func NewProxy(backend Backend) *Server {
	return newServer(backend)
}

func newServer(backend Backend) *Server {
	s := &Server{backend: backend, mux: http.NewServeMux()}
	s.obs.start = time.Now()
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

// Stats returns the serving snapshot of every dataset with the process
// identity block filled in — the in-process form of GET /stats.
func (s *Server) Stats() Stats {
	st := s.backend.Stats()
	st.Server = s.serverInfo()
	return st
}

// ServeHTTP implements http.Handler. The data endpoints go through the
// frame table (serveData) and are timed into the per-encoding
// request-latency histograms; infrastructure endpoints (/stats, /metrics,
// probes, /snapshot — which has its own duration histogram) are not, so
// scrapes never skew request latency.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if op := pathOp(r.URL.Path); op != nil {
		ct := r.Header.Get("Content-Type")
		binary := r.Method == http.MethodPost && (ct == ContentTypeBinary || strings.HasPrefix(ct, ContentTypeBinary+";"))
		if binary || op.toJSON != nil {
			start := time.Now()
			s.serveData(w, r, op, binary)
			hist := &s.obs.reqJSON
			if binary {
				hist = &s.obs.reqBinary
			}
			hist.Observe(time.Since(start))
			return
		}
	}
	switch r.URL.Path {
	case "/snapshot", "/stats", "/metrics", "/healthz", "/readyz", "/datasets":
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

// serveData is the HTTP carrier's one data path: the body, in the codec
// the request negotiated, becomes one request frame; ServeFrame answers
// it; and the response frame goes back in the same codec. Errors answer in
// the JSON envelope whatever the codec.
func (s *Server) serveData(w http.ResponseWriter, r *http.Request, op *frameOp, binary bool) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "method_not_allowed", "use POST")
		return
	}
	body := wire.GetBuf()
	defer wire.PutBuf(body)
	b := *body
	if n := r.ContentLength; n > 0 && n <= wire.MaxMessageBytes && int64(cap(b)) < n {
		b = make([]byte, 0, n)
	}
	b, err := wire.ReadAllInto(http.MaxBytesReader(w, r.Body, wire.MaxMessageBytes), b)
	*body = b
	switch {
	case err != nil && binary:
		writeError(w, http.StatusBadRequest, "bad_request", "reading body: "+err.Error())
		return
	case err != nil:
		writeCoreError(w, badJSON{err})
		return
	}
	frame, name := b, []byte(nil)
	if !binary {
		fb := wire.GetBuf()
		defer wire.PutBuf(fb)
		if *fb, err = s.frameOfJSON(op, b, *fb); err != nil {
			writeCoreError(w, err)
			return
		}
		frame, name = *fb, (*fb)[2:2+int((*fb)[1])]
	}
	out, err := s.frameWait.Do(func(done FrameReply) error {
		s.ServeFrame(frame, wire.GetBuf(), done)
		return nil
	})
	defer wire.PutBuf(out)
	if err != nil {
		writeCoreError(w, err)
		return
	}
	resp, ct := *out, binaryType
	if !binary {
		// The request body has been consumed: its buffer takes the response.
		if *body, err = jsonResponse(op, (*body)[:0], name, *out); err != nil {
			writeCoreError(w, err)
			return
		}
		resp, ct = *body, jsonType
	}
	h := w.Header()
	h["Content-Type"] = ct
	h.Set("Content-Length", strconv.Itoa(len(resp)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(resp)
}

// The Content-Type of each codec's responses, shared by all of them:
// header values are replaced, never appended to in place.
var (
	jsonType   = []string{"application/json"}
	binaryType = []string{ContentTypeBinary}
)

func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	var req SnapshotRequest
	if !readJSON(w, r, &req) {
		return
	}
	name, err := req.Dataset, error(nil)
	if name == "" { // the sole dataset, echoed by its name
		name, err = s.backend.Resolve("")
	}
	var info SnapshotInfo
	if err == nil {
		info, err = s.backend.Snapshot(name)
	}
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

// readJSON decodes a strict JSON body into dst, answering the error itself
// (and returning false) on malformed input or a wrong method.
func readJSON(w http.ResponseWriter, r *http.Request, dst any) bool {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "method_not_allowed", "use POST")
		return false
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, wire.MaxMessageBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		writeCoreError(w, badJSON{err})
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
