package irsnet

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"github.com/irsgo/irs/internal/metrics"
	"github.com/irsgo/irs/internal/wire"
	"github.com/irsgo/irs/server"
)

// Server serves the irsnet protocol over raw TCP connections, submitting
// every decoded request asynchronously into the same coalescing core the
// HTTP layer wraps. Per connection it runs exactly two goroutines: a
// reader that decodes messages and submits them (never waiting for a
// flush, so pipelined requests behind a slow batch are not stalled), and
// a writer that drains an eventbox queue of encoded responses, batching
// them into large writes. The steady-state per-request path allocates
// nothing: message scratch, result buffers, and the Reply callbacks
// delivering flush results are all pooled, and dataset names are interned
// off the request frames.
type Server struct {
	backend *server.Server
	names   internTable
	inst    instruments

	mu     sync.Mutex
	lis    net.Listener
	conns  map[*conn]struct{}
	closed bool
	wg     sync.WaitGroup // one count per live connection handler
}

// instruments is the transport's hot-path-safe instrumentation: atomic,
// allocation-free recording (the TCP request path is pinned at 0
// allocs/request; these must not break that), scraped through
// AppendMetrics.
type instruments struct {
	connsOpen  metrics.Gauge
	connsTotal metrics.Counter
	inflight   metrics.Gauge
	reqSeconds metrics.DurationHistogram
}

// AppendMetrics implements server.MetricsAppender: it renders the TCP
// transport's Prometheus families (connection counts, in-flight
// requests, request latency) for concatenation into the backend's
// /metrics exposition. Register with backend.RegisterMetrics.
func (s *Server) AppendMetrics(dst []byte) []byte {
	b := metrics.NewBuilder(dst)
	b.Family("irsd_tcp_connections_open", "TCP connections currently open.", "gauge")
	b.Val("irsd_tcp_connections_open", float64(s.inst.connsOpen.Load()))
	b.Family("irsd_tcp_connections_opened_total", "TCP connections accepted since boot.", "counter")
	b.Val("irsd_tcp_connections_opened_total", float64(s.inst.connsTotal.Load()))
	b.Family("irsd_tcp_inflight_requests", "Requests submitted to the core and not yet answered.", "gauge")
	b.Val("irsd_tcp_inflight_requests", float64(s.inst.inflight.Load()))
	b.Family("irsd_tcp_request_duration_seconds", "TCP request latency, dispatch to response enqueue.", "histogram")
	b.Histogram("irsd_tcp_request_duration_seconds", s.inst.reqSeconds.Snapshot())
	return b.Bytes()
}

// readBufferSize is each connection's buffered-reader size.
const readBufferSize = 32 << 10

// NewServer returns a Server answering requests from backend's datasets.
func NewServer(backend *server.Server) *Server {
	s := &Server{backend: backend, conns: make(map[*conn]struct{})}
	s.names.m = make(map[string]string)
	return s
}

// Serve accepts connections on l until Shutdown (returning nil) or an
// accept error (returning it). The listener is closed either way.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		_ = l.Close()
		return nil
	}
	s.lis = l
	s.mu.Unlock()
	defer l.Close()
	for {
		nc, err := l.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		c := &conn{srv: s, nc: nc, q: newWriteQueue()}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			_ = nc.Close()
			return nil
		}
		s.conns[c] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		s.inst.connsTotal.Inc()
		s.inst.connsOpen.Add(1)
		go func() {
			defer s.wg.Done()
			c.handle()
			s.mu.Lock()
			delete(s.conns, c)
			s.mu.Unlock()
			s.inst.connsOpen.Add(-1)
		}()
	}
}

// Shutdown gracefully stops the server: it closes the listener, unblocks
// every connection's reader (no further requests are accepted), and waits
// for requests already read to be answered and their responses written.
// If ctx expires first, remaining connections are force-closed and
// ctx.Err() is returned. Like http.Server.Shutdown, it does not close the
// serving core — close that after Shutdown returns for a full drain.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.closed = true
	lis := s.lis
	conns := make([]*conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	if lis != nil {
		_ = lis.Close()
	}
	for _, c := range conns {
		// A deadline in the past fails the reader's current and future
		// Reads without touching writes: in-flight requests still answer.
		_ = c.nc.SetReadDeadline(time.Now())
	}
	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		for c := range s.conns {
			_ = c.nc.Close()
		}
		s.mu.Unlock()
		return ctx.Err()
	}
}

// conn is one accepted connection: its reader state plus the write queue
// its responses funnel through.
type conn struct {
	srv      *Server
	nc       net.Conn
	q        *writeQueue
	inflight sync.WaitGroup // requests submitted but not yet delivered
	readBuf  []byte         // frame scratch, reused across requests
}

// handle runs the connection to completion. Teardown order is the drain
// contract: the reader stops first, then every submitted request delivers
// (the core answers all accepted work), then the queue closes so the
// writer drains what was enqueued, and only then does the socket close.
func (c *conn) handle() {
	wdone := make(chan struct{})
	go c.writeLoop(wdone)
	c.readLoop()
	c.inflight.Wait()
	c.q.close()
	<-wdone
	_ = c.nc.Close()
}

// maxRetainedRead bounds the frame scratch kept between requests, so one
// outsized insert does not pin megabytes per connection for its lifetime.
const maxRetainedRead = 1 << 20

// readLoop decodes messages and dispatches them until the connection
// fails, closes, or a malformed envelope desynchronizes the stream.
func (c *conn) readLoop() {
	br := bufio.NewReaderSize(c.nc, readBufferSize)
	var hdr [reqHeaderSize]byte
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return
		}
		n := binary.LittleEndian.Uint32(hdr[0:4])
		id := binary.LittleEndian.Uint64(hdr[4:12])
		if n < minRequestLen || n > MaxMessageBytes {
			return // envelope out of sync: there is no frame boundary to recover at
		}
		frameLen := int(n) - 8
		if cap(c.readBuf) < frameLen {
			c.readBuf = make([]byte, frameLen)
		}
		frame := c.readBuf[:frameLen]
		if _, err := io.ReadFull(br, frame); err != nil {
			return
		}
		c.dispatch(id, frame)
		if cap(c.readBuf) > maxRetainedRead {
			c.readBuf = nil
		}
	}
}

// dispatch decodes one request frame and submits it. Everything the
// request needs afterwards — the interned dataset name, the query bounds,
// the copied insert items — survives the frame buffer, so the reader can
// reuse it for the next message immediately; the submitted work answers
// through a pooled Reply that encodes and enqueues the response from the
// delivering flusher goroutine.
func (c *conn) dispatch(id uint64, frame []byte) {
	switch frame[0] {
	case wire.FrameSample, wire.FrameSampleStats:
		raw, err := wire.DecodeSampleRequestRaw(frame)
		if err != nil {
			c.sendErr(id, err)
			return
		}
		name := c.srv.names.intern(raw.Name)
		p := samplePool.Get().(*pendingSample)
		dst := wire.GetF64()
		p.c, p.id, p.dst, p.withStats = c, id, dst, raw.Stats
		p.start = time.Now()
		var stats *server.SampleStats
		if raw.Stats {
			stats = &p.stats // pooled with p: no allocation per request
		}
		c.inflight.Add(1)
		c.srv.inst.inflight.Add(1)
		if err := c.srv.backend.SampleAsync(name, (*dst)[:0], raw.Lo, raw.Hi, raw.T, stats, p); err != nil {
			c.inflight.Done()
			c.srv.inst.inflight.Add(-1)
			p.c, p.dst = nil, nil
			samplePool.Put(p)
			wire.PutF64(dst)
			c.sendErr(id, err)
		}
	case wire.FrameInsert:
		items := wire.GetItems()
		rawName, all, err := wire.DecodeInsertRequestItems(frame, (*items)[:0])
		*items = all
		if err != nil {
			wire.PutItems(items)
			c.sendErr(id, err)
			return
		}
		name := c.srv.names.intern(rawName)
		p := insertPool.Get().(*pendingInsert)
		p.c, p.id, p.items = c, id, items
		p.start = time.Now()
		c.inflight.Add(1)
		c.srv.inst.inflight.Add(1)
		if err := c.srv.backend.InsertAsync(name, all, p); err != nil {
			c.inflight.Done()
			c.srv.inst.inflight.Add(-1)
			p.c, p.items = nil, nil
			insertPool.Put(p)
			wire.PutItems(items)
			c.sendErr(id, err)
		}
	// The cold-path frames (delete, update, stats, rangestats) each run on
	// their own goroutine against the backend's synchronous methods: they
	// are rare (operational tooling, router probes), so a goroutine per
	// request is the right trade against threading four more shapes through
	// the async core — and the reader still never parks behind one.
	case wire.FrameDelete:
		keys := wire.GetF64()
		rawName, ks, err := wire.DecodeDeleteRequest(frame, (*keys)[:0])
		*keys = ks
		if err != nil {
			wire.PutF64(keys)
			c.sendErr(id, err)
			return
		}
		name := c.srv.names.intern(rawName)
		c.startCold(id, func(b []byte) ([]byte, error) {
			n, err := c.srv.backend.Delete(name, *keys)
			wire.PutF64(keys)
			if err != nil {
				return b, err
			}
			return wire.EncodeDeleteResponse(b, n), nil
		})
	case wire.FrameUpdate:
		items := wire.GetItems()
		rawName, its, err := wire.DecodeUpdateRequest(frame, (*items)[:0])
		*items = its
		if err != nil {
			wire.PutItems(items)
			c.sendErr(id, err)
			return
		}
		name := c.srv.names.intern(rawName)
		c.startCold(id, func(b []byte) ([]byte, error) {
			n, err := c.srv.backend.Update(name, *items)
			wire.PutItems(items)
			if err != nil {
				return b, err
			}
			return wire.EncodeUpdateResponse(b, n), nil
		})
	case wire.FrameStats:
		if err := wire.DecodeStatsRequest(frame); err != nil {
			c.sendErr(id, err)
			return
		}
		c.startCold(id, func(b []byte) ([]byte, error) {
			doc, err := json.Marshal(c.srv.backend.Stats())
			if err != nil {
				return b, err
			}
			return append(b, doc...), nil
		})
	case wire.FrameRangeStats:
		rawName, lo, hi, err := wire.DecodeRangeStatsRequest(frame)
		if err != nil {
			c.sendErr(id, err)
			return
		}
		name := c.srv.names.intern(rawName)
		c.startCold(id, func(b []byte) ([]byte, error) {
			n, mass, err := c.srv.backend.RangeStats(name, lo, hi)
			if err != nil {
				return b, err
			}
			return wire.EncodeRangeStatsResponse(b, n, mass), nil
		})
	default:
		c.sendErr(id, fmt.Errorf("%w: unknown frame kind 0x%02x", wire.ErrFrame, frame[0]))
	}
}

// startCold answers one cold-path request on its own goroutine. run
// appends the success payload to b (the prepared response envelope) and is
// responsible for recycling any pooled buffers it captured; on error the
// envelope is discarded and the error response takes its place.
func (c *conn) startCold(id uint64, run func(b []byte) ([]byte, error)) {
	c.inflight.Add(1)
	c.srv.inst.inflight.Add(1)
	go func() {
		defer c.inflight.Done()
		start := time.Now()
		buf := wire.GetBuf()
		b := (*buf)[:0]
		b = wire.AppendU32(b, 0) // length, patched below
		b = wire.AppendU64(b, id)
		b = append(b, statusOK)
		b, err := run(b)
		if err != nil {
			wire.PutBuf(buf)
			c.sendErr(id, err)
		} else {
			binary.LittleEndian.PutUint32(b[0:4], uint32(len(b)-4))
			*buf = b
			c.send(buf)
		}
		c.srv.inst.reqSeconds.Observe(time.Since(start))
		c.srv.inst.inflight.Add(-1)
	}()
}

// sendErr encodes and enqueues one error response. Errors are off the hot
// path; this path may allocate (the message string).
func (c *conn) sendErr(id uint64, err error) {
	code, status := wire.ErrCode(err)
	msg := err.Error()
	if len(msg) > 1<<15 {
		msg = msg[:1<<15]
	}
	buf := wire.GetBuf()
	b := (*buf)[:0]
	b = wire.AppendU32(b, uint32(minResponseLen+2+1+len(code)+2+len(msg)))
	b = wire.AppendU64(b, id)
	b = append(b, statusErr)
	b = wire.EncodeError(b, code, status, msg)
	*buf = b
	c.send(buf)
}

// send hands buf to the writer; ownership transfers on success. After the
// queue closes (connection teardown) the response is dropped and the
// buffer recycled — the peer is gone.
func (c *conn) send(buf *[]byte) {
	if !c.q.push(buf) {
		wire.PutBuf(buf)
	}
}

// writeLoop drains the eventbox queue into the socket: every swapped
// batch goes out as one gathered write (net.Buffers → writev), so bursts
// of pipelined responses cost one syscall with no intermediate copy — the
// bufio writer this replaces copied every response into its own buffer
// first. On a write error it keeps draining (recycling buffers so
// producers never leak) but stops writing, and closes the socket to
// unblock the reader.
func (c *conn) writeLoop(done chan struct{}) {
	defer close(done)
	// iov is the reused backing array for the gathered write; sending is
	// the value WriteTo is invoked on. It lives outside the loop because
	// WriteTo's pointer receiver escapes into the poll layer's
	// buffersWriter interface — hoisting it makes that one heap cell per
	// connection instead of one allocation per batch.
	var iov, sending net.Buffers
	var spare []*[]byte
	failed := false
	for {
		batch, closed := c.q.swap(spare[:0])
		if len(batch) == 0 {
			spare = batch
			if closed {
				return
			}
			<-c.q.wake
			continue
		}
		if !failed {
			var err error
			if len(batch) == 1 {
				// A lone response takes the plain-Write path: same one
				// syscall, none of the iovec assembly.
				_, err = c.nc.Write(*batch[0])
			} else {
				// Rebuild the iovec from index 0 each batch: WriteTo
				// advances the slice it is invoked on (and consumes its
				// entries in place), so only the backing array is
				// reusable, never the advanced value.
				iov = iov[:0]
				for _, b := range batch {
					iov = append(iov, *b)
				}
				sending = iov
				_, err = sending.WriteTo(c.nc)
				clear(iov) // drop references so pooled buffers are not pinned
			}
			if err != nil {
				failed = true
				_ = c.nc.Close()
			}
		}
		for _, b := range batch {
			wire.PutBuf(b)
		}
		spare = batch
	}
}

// pendingSample is one in-flight sample request's Reply: a pooled pointer
// (boxing into the Reply interface without allocating) that encodes the
// response envelope around the delivered samples and enqueues it. It owns
// the SampleStats a sample-with-stats request is answered into, so that
// kind allocates no more than a plain sample.
type pendingSample struct {
	c         *conn
	id        uint64
	dst       *[]float64 // pooled result buffer the core appends into
	start     time.Time  // dispatch time, for the request-latency histogram
	stats     server.SampleStats
	withStats bool // kind 0x07: the response leads with stats
}

var samplePool = sync.Pool{New: func() any { return new(pendingSample) }}

// Deliver implements server.SampleReply; it runs on a core flusher
// goroutine and must only encode and enqueue.
func (p *pendingSample) Deliver(v []float64, err error) {
	c, id := p.c, p.id
	if err != nil {
		c.sendErr(id, err)
	} else {
		buf := wire.GetBuf()
		b := (*buf)[:0]
		b = wire.AppendU32(b, 0) // length, patched below
		b = wire.AppendU64(b, id)
		b = append(b, statusOK)
		if p.withStats {
			b = wire.EncodeSampleStatsResponse(b, p.stats.N, p.stats.Mass, v)
		} else {
			b = wire.EncodeSampleResponse(b, v)
		}
		binary.LittleEndian.PutUint32(b[0:4], uint32(len(b)-4))
		*buf = b
		c.send(buf)
		*p.dst = v[:0] // keep the buffer's growth pooled
	}
	c.srv.inst.reqSeconds.Observe(time.Since(p.start))
	c.srv.inst.inflight.Add(-1)
	wire.PutF64(p.dst)
	p.c, p.dst, p.stats = nil, nil, server.SampleStats{}
	samplePool.Put(p)
	c.inflight.Done()
}

// pendingInsert is pendingSample's insert counterpart; it also owns the
// pooled decoded-items buffer until delivery (the core requires the items
// unmutated until then).
type pendingInsert struct {
	c     *conn
	id    uint64
	items *[]wire.Item
	start time.Time // dispatch time, for the request-latency histogram
}

var insertPool = sync.Pool{New: func() any { return new(pendingInsert) }}

// Deliver implements server.InsertReply.
func (p *pendingInsert) Deliver(n int, err error) {
	c, id := p.c, p.id
	if err != nil {
		c.sendErr(id, err)
	} else {
		buf := wire.GetBuf()
		b := (*buf)[:0]
		b = wire.AppendU32(b, uint32(minResponseLen+4))
		b = wire.AppendU64(b, id)
		b = append(b, statusOK)
		b = wire.EncodeInsertResponse(b, n)
		*buf = b
		c.send(buf)
	}
	c.srv.inst.reqSeconds.Observe(time.Since(p.start))
	c.srv.inst.inflight.Add(-1)
	wire.PutItems(p.items)
	p.c, p.items = nil, nil
	insertPool.Put(p)
	c.inflight.Done()
}

// internTable interns dataset names decoded off request frames, so the
// steady-state path hands the core an existing string instead of
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
	s = string(b)
	t.m[s] = s
	return s
}
