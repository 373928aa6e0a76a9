package server

import (
	"encoding/json"
	"fmt"
	"sync"

	srv "github.com/irsgo/irs/internal/server"
	"github.com/irsgo/irs/internal/wire"
)

// The frame protocol, written once. Every carrier — the HTTP handler
// (ServeHTTP) and the persistent TCP transport (server/irsnet) — hands its
// request frames to ServeFrame and wraps the answer in its own envelope;
// the typed client (FrameClient) is the same protocol's other end. Frame
// layouts live in the internal/wire package comment; frameOps below is the
// one place a kind is mapped to its path, retry rule, backend call, and
// JSON codec (jsoncodec.go), which is how the HTTP carrier turns a JSON
// body into the kind's frame and its response frame into JSON.

// FrameReply receives ServeFrame's one answer to one frame: the carrier's
// buffer with the response frame appended after whatever envelope the
// carrier put there, or the error (the buffer is then the carrier's to
// reuse for its error envelope). Deliver runs on whichever goroutine
// answered — a coalescer flusher, a cold-kind goroutine, or the caller of
// ServeFrame for a frame that fails to decode — and must not block.
type FrameReply = srv.Reply[*[]byte]

// frameOp is one row of the frame table.
type frameOp struct {
	path     string // the HTTP path of the op; the HTTP carrier posts the frame there
	readOnly bool   // answering it twice changes nothing, so a client may resend after a break
	serve    func(s *Server, frame []byte, out *[]byte, done FrameReply)
	// The JSON codec (jsoncodec.go), nil for a kind with no JSON form:
	// fromJSON appends the request frame of a JSON body, toJSON the
	// response's JSON fields read off its response frame.
	fromJSON func(body, b []byte) ([]byte, error)
	toJSON   func(b, frame []byte) ([]byte, error)
}

// frameOps is the frame table, indexed by kind byte. The hot kinds submit
// asynchronously through pooled pending replies; the cold kinds run the
// backend's blocking methods on their own goroutine (cold), so no carrier's
// reader ever parks behind a backend call.
var frameOps = [...]frameOp{
	wire.FrameSample:      {"/sample", true, (*Server).serveSample, jsonRequest(sampleFrame), sampleJSON},
	wire.FrameInsert:      {"/insert", false, (*Server).serveInsert, jsonRequest(wire.EncodeInsertRequest), countJSON("inserted")},
	wire.FrameDelete:      {"/delete", false, (*Server).serveDelete, jsonRequest(wire.EncodeDeleteRequest), countJSON("removed")},
	wire.FrameUpdate:      {"/update", false, (*Server).serveUpdate, jsonRequest(wire.EncodeUpdateRequest), countJSON("updated")},
	wire.FrameStats:       {path: "/stats", readOnly: true, serve: (*Server).serveStats},
	wire.FrameRangeStats:  {"/rangestats", true, (*Server).serveRangeStats, jsonRequest(wire.EncodeRangeStatsRequest), rangeStatsJSON},
	wire.FrameSampleStats: {path: "/sample", readOnly: true, serve: (*Server).serveSample},
}

// frameOpOf returns the table row of the frame's kind, or false for an empty
// frame or an unknown kind.
func frameOpOf(frame []byte) (frameOp, bool) {
	if len(frame) == 0 || int(frame[0]) >= len(frameOps) || frameOps[frame[0]].serve == nil {
		return frameOp{}, false
	}
	return frameOps[frame[0]], true
}

// pathOp returns the first row posted to path — the one with the JSON
// form, if the path has one — or nil for a path that is no data endpoint.
func pathOp(path string) *frameOp {
	for i := range frameOps {
		if op := &frameOps[i]; op.serve != nil && op.path == path {
			return op
		}
	}
	return nil
}

// ServeFrame answers one binary request frame through done, exactly once:
// the response frame appended to *out, or the error — a malformed frame or
// an unknown kind is wire.ErrFrame (bad_request), anything else the
// backend's. frame is fully consumed before ServeFrame returns, so the
// carrier may reuse it at once; out belongs to the dispatcher until done
// runs.
func (s *Server) ServeFrame(frame []byte, out *[]byte, done FrameReply) {
	op, ok := frameOpOf(frame)
	if !ok {
		done.Deliver(out, fmt.Errorf("%w: unknown frame kind %x", wire.ErrFrame, frame[:min(len(frame), 1)]))
		return
	}
	op.serve(s, frame, out, done)
}

func (s *Server) serveSample(frame []byte, out *[]byte, done FrameReply) {
	// Every codec and carrier, and a router's front, passes through here:
	// a count whose answer cannot fit one message is refused before
	// anything is drawn.
	req, err := wire.DecodeSampleRequestRaw(frame)
	if err == nil && req.T > wire.MaxSampleCount {
		err = countError(req.T)
	}
	if err != nil {
		done.Deliver(out, err)
		return
	}
	p := samplePool.Get().(*pendingSample)
	p.out, p.done, p.dst, p.withStats = out, done, wire.GetF64(), req.Stats
	var stats *SampleStats
	if req.Stats {
		stats = &p.stats // pooled with p: no allocation per request
	}
	if err := s.backend.SampleAppendAsync(s.names.intern(req.Name), (*p.dst)[:0], req.Lo, req.Hi, req.T, stats, p); err != nil {
		p.Deliver(nil, err)
	}
}

// countError refuses a sample count above wire.MaxSampleCount. It is an
// ErrInvalidCount, with a message of its own.
type countError int

func (t countError) Error() string {
	return fmt.Sprintf("server: sample count %d exceeds %d, the most one response carries", int(t), wire.MaxSampleCount)
}

func (countError) Is(target error) bool { return target == ErrInvalidCount }

func (s *Server) serveInsert(frame []byte, out *[]byte, done FrameReply) {
	// Keys decode ahead of items as unit-weight entries of one combined
	// slice, so a request with both inserts identically over every codec.
	items := wire.GetItems()
	name, all, err := wire.DecodeInsertRequestItems(frame, (*items)[:0])
	*items = all
	if err != nil {
		wire.PutItems(items)
		done.Deliver(out, err)
		return
	}
	p := insertPool.Get().(*pendingInsert)
	p.out, p.done, p.items = out, done, items
	if err := s.backend.InsertAsync(s.names.intern(name), all, p); err != nil {
		p.Deliver(0, err)
	}
}

func (s *Server) serveDelete(frame []byte, out *[]byte, done FrameReply) {
	keys := wire.GetF64()
	name, ks, err := wire.DecodeDeleteRequest(frame, (*keys)[:0])
	*keys = ks
	if err != nil {
		wire.PutF64(keys)
		done.Deliver(out, err)
		return
	}
	dataset := s.names.intern(name)
	cold(out, done, func(b []byte) ([]byte, error) {
		n, err := s.backend.Delete(dataset, *keys)
		wire.PutF64(keys)
		return wire.EncodeCountResponse(b, n), err
	})
}

func (s *Server) serveUpdate(frame []byte, out *[]byte, done FrameReply) {
	items := wire.GetItems()
	name, its, err := wire.DecodeUpdateRequest(frame, (*items)[:0])
	*items = its
	if err != nil {
		wire.PutItems(items)
		done.Deliver(out, err)
		return
	}
	dataset := s.names.intern(name)
	cold(out, done, func(b []byte) ([]byte, error) {
		n, err := s.backend.Update(dataset, *items)
		wire.PutItems(items)
		return wire.EncodeCountResponse(b, n), err
	})
}

func (s *Server) serveStats(frame []byte, out *[]byte, done FrameReply) {
	if err := wire.DecodeStatsRequest(frame); err != nil {
		done.Deliver(out, err)
		return
	}
	cold(out, done, func(b []byte) ([]byte, error) {
		doc, err := json.Marshal(s.Stats())
		return append(b, doc...), err
	})
}

func (s *Server) serveRangeStats(frame []byte, out *[]byte, done FrameReply) {
	name, lo, hi, err := wire.DecodeRangeStatsRequest(frame)
	if err != nil {
		done.Deliver(out, err)
		return
	}
	dataset := s.names.intern(name)
	cold(out, done, func(b []byte) ([]byte, error) {
		n, mass, err := s.backend.RangeStats(dataset, lo, hi)
		return wire.EncodeRangeStatsResponse(b, n, mass), err
	})
}

// cold answers a cold kind on its own goroutine: call appends the response
// frame to b, and on error *out is left as it was.
func cold(out *[]byte, done FrameReply, call func(b []byte) ([]byte, error)) {
	go func() {
		b, err := call(*out)
		if err == nil {
			*out = b
		}
		done.Deliver(out, err)
	}()
}

// pendingSample is one in-flight sample frame's SampleReply: a pooled
// pointer (boxing into the Reply interface without allocating) that
// encodes the response frame into the carrier's buffer and hands it on. It
// owns the SampleStats a sample-with-stats frame is answered into, so that
// kind allocates no more than a plain sample.
type pendingSample struct {
	out       *[]byte
	done      FrameReply
	dst       *[]float64 // pooled result buffer the core appends into
	stats     SampleStats
	withStats bool // kind 0x07: the response leads with stats
}

var samplePool = sync.Pool{New: func() any { return new(pendingSample) }}

// Deliver implements SampleReply.
func (p *pendingSample) Deliver(v []float64, err error) {
	out, done := p.out, p.done
	if err == nil {
		if p.withStats {
			*out = wire.EncodeSampleStatsResponse(*out, p.stats.N, p.stats.Mass, v)
		} else {
			*out = wire.EncodeSampleResponse(*out, v)
		}
		*p.dst = v[:0] // keep the buffer's growth pooled
	}
	wire.PutF64(p.dst)
	*p = pendingSample{}
	samplePool.Put(p)
	done.Deliver(out, err)
}

// pendingInsert is pendingSample's insert counterpart; it owns the pooled
// decoded-items buffer until delivery (the core requires the items
// unmutated until then).
type pendingInsert struct {
	out   *[]byte
	done  FrameReply
	items *[]Item
}

var insertPool = sync.Pool{New: func() any { return new(pendingInsert) }}

// Deliver implements InsertReply.
func (p *pendingInsert) Deliver(n int, err error) {
	out, done := p.out, p.done
	if err == nil {
		*out = wire.EncodeCountResponse(*out, n)
	}
	wire.PutItems(p.items)
	*p = pendingInsert{}
	insertPool.Put(p)
	done.Deliver(out, err)
}

// internTable interns dataset names decoded off request frames, so the
// steady-state path hands the backend an existing string instead of
// allocating one per request (map lookup by []byte compiles to no
// allocation). It is bounded: a hostile stream of unique names falls back
// to plain allocation instead of growing the table forever.
type internTable struct {
	mu sync.RWMutex
	m  map[string]string
}

const maxInterned = 1024

func (t *internTable) intern(b []byte) string {
	t.mu.RLock()
	s, ok := t.m[string(b)]
	t.mu.RUnlock()
	if ok {
		return s
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if s, ok := t.m[string(b)]; ok {
		return s
	}
	if len(t.m) >= maxInterned {
		return string(b)
	}
	if t.m == nil {
		t.m = make(map[string]string)
	}
	s = string(b)
	t.m[s] = s
	return s
}
