package irsnet

import (
	"bufio"
	"context"
	"encoding/binary"
	"io"
	"net"
	"sync"
	"time"

	"github.com/irsgo/irs/internal/metrics"
	"github.com/irsgo/irs/internal/wire"
	"github.com/irsgo/irs/server"
)

// Server carries the frame protocol over raw TCP connections: it unwraps
// each message's envelope and hands the frame to the serving layer's one
// dispatcher (server.Server.ServeFrame), which never waits for a flush.
// Per connection it runs exactly two goroutines: a reader that unwraps
// messages and dispatches them (so pipelined requests behind a slow batch
// are not stalled), and a writer that drains an eventbox queue of
// enveloped responses, batching them into large writes. The steady-state
// per-request path allocates nothing: message scratch, response buffers,
// and the replies wrapping each answer in its envelope are all pooled.
type Server struct {
	backend *server.Server
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
	return &Server{backend: backend, conns: make(map[*conn]struct{})}
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
	inflight sync.WaitGroup // requests dispatched but not yet answered
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

// readLoop unwraps messages and dispatches them until the connection
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

// dispatch hands one request frame to the dispatcher. The response buffer
// starts with the response envelope, its length patched on delivery; the
// frame buffer is free for the next message as soon as ServeFrame returns.
func (c *conn) dispatch(id uint64, frame []byte) {
	p := replyPool.Get().(*reply)
	p.c, p.id, p.start = c, id, time.Now()
	out := wire.GetBuf()
	*out = appendRespHeader((*out)[:0], id, statusOK)
	c.inflight.Add(1)
	c.srv.inst.inflight.Add(1)
	c.srv.backend.ServeFrame(frame, out, p)
}

// appendRespHeader appends a response envelope with its length to patch.
func appendRespHeader(b []byte, id uint64, status byte) []byte {
	b = wire.AppendU32(b, 0)
	b = wire.AppendU64(b, id)
	return append(b, status)
}

// reply is one dispatched request's server.FrameReply: a pooled pointer
// (boxing into the interface without allocating) that finishes the
// envelope — or replaces it with the error envelope — and enqueues it.
type reply struct {
	c     *conn
	id    uint64
	start time.Time // dispatch time, for the request-latency histogram
}

var replyPool = sync.Pool{New: func() any { return new(reply) }}

// Deliver implements server.FrameReply; it runs on whichever goroutine
// answered and must only encode and enqueue.
func (p *reply) Deliver(out *[]byte, err error) {
	c := p.c
	b := *out
	if err != nil {
		// Errors are off the hot path; this may allocate (the message).
		code, status := wire.ErrCode(err)
		b = wire.EncodeError(appendRespHeader(b[:0], p.id, statusErr), code, status, err.Error())
	}
	binary.LittleEndian.PutUint32(b[0:4], uint32(len(b)-4))
	*out = b
	c.send(out)
	c.srv.inst.reqSeconds.Observe(time.Since(p.start))
	c.srv.inst.inflight.Add(-1)
	*p = reply{}
	replyPool.Put(p)
	c.inflight.Done()
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
