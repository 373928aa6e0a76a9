package irsnet

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/irsgo/irs/internal/wire"
	"github.com/irsgo/irs/server"
)

// Options configures a Client.
type Options struct {
	// Conns is the connection pool size. Requests round-robin across the
	// pool; each connection pipelines any number of concurrent requests,
	// so a small pool saturates a server — the default of 2 exists mainly
	// so one slow TCP window does not gate everything. <= 0 means 2.
	Conns int
	// DialTimeout bounds each (re)connect. <= 0 means 5s.
	DialTimeout time.Duration
}

func (o Options) withDefaults() Options {
	if o.Conns <= 0 {
		o.Conns = 2
	}
	if o.DialTimeout <= 0 {
		o.DialTimeout = 5 * time.Second
	}
	return o
}

// Client is the typed client of the irsnet protocol: the frame client
// (server.FrameClient) over a small pool of persistent connections, so it
// satisfies the unified client interfaces in package client exactly as the
// binary-HTTP client does. It is safe for any number of concurrent
// goroutines: requests are pipelined over the pool and matched to
// responses by ID, out of order. Connections dial lazily and re-dial after
// breaking. A request that fails before any of its bytes were written is
// retried on a fresh connection; so is a read-only one (sample, sample with
// stats, range stats, stats) whose connection broke later, since answering
// it twice changes nothing. A mutation that may have reached the server
// surfaces the connection error instead (the server may have executed it,
// and a multiset insert applied twice is stored twice).
//
// Server-side errors arrive as *server.APIError with the same codes and
// statuses as HTTP, so errors.Is against the server sentinels behaves
// identically across transports.
type Client struct {
	*server.FrameClient
}

// NewClient returns a client for the irsnet listener at addr (host:port).
// No connection is made until the first request.
func NewClient(addr string, opts Options) *Client {
	opts = opts.withDefaults()
	return &Client{server.NewFrameClient(&carrier{addr: addr, opts: opts, slots: make([]*clientConn, opts.Conns)})}
}

// carrier is the connection pool the frame client's round trips travel
// over.
type carrier struct {
	addr string
	opts Options
	next atomic.Uint64 // round-robin slot cursor

	mu     sync.Mutex
	slots  []*clientConn // lazily dialed; nil or broken entries re-dial
	closed bool
}

// Close closes every connection; calls in flight fail with a connection
// error wrapping ErrClosed, later calls fail with ErrClosed.
func (c *carrier) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	slots := c.slots
	c.slots = nil
	c.mu.Unlock()
	for _, cc := range slots {
		if cc != nil {
			cc.fail(ErrClosed)
		}
	}
	return nil
}

// AppendEnvelope reserves the request envelope (length + ID, patched at
// send time) ahead of the frame.
func (c *carrier) AppendEnvelope(b []byte) []byte {
	b = wire.AppendU32(b, 0)
	return wire.AppendU64(b, 0)
}

// RoundTrip sends the assembled message and blocks until its response has
// been read into *resp or ctx is done, making up to three attempts where a
// retry is safe (see Client).
func (c *carrier) RoundTrip(ctx context.Context, msg []byte, readOnly bool, resp *[]byte) error {
	binary.LittleEndian.PutUint32(msg[0:4], uint32(len(msg)-4))
	cl := getCall()
	defer putCall(cl)
	cl.resp = resp
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		cc, err := c.conn()
		if err != nil {
			if lastErr == nil {
				lastErr = err
			}
			continue // the slot re-dials on the next pass
		}
		id, ok := cc.register(cl)
		if !ok {
			continue // broke between pick and register; nothing was sent
		}
		binary.LittleEndian.PutUint64(msg[4:12], id)
		cc.wmu.Lock()
		n, werr := cc.nc.Write(msg)
		cc.wmu.Unlock()
		if werr != nil {
			// Fail the connection (delivering a completion to cl along
			// with every other pending call) and consume it so cl is ours
			// again.
			cc.fail(werr)
			<-cl.done
			cl.err = nil
			if n == 0 || readOnly {
				// None of the request reached the wire (safe to retry even
				// for inserts), or executing it twice is harmless.
				lastErr = werr
				continue
			}
			return fmt.Errorf("irsnet: connection broken mid-request: %w", werr)
		}
		select {
		case <-cl.done:
		case <-ctx.Done():
			if cc.deregister(id) {
				// The reader had not picked it up; cl is ours again. The
				// server will still answer — the response is dropped on
				// arrival (unknown ID).
				return ctx.Err()
			}
			<-cl.done // completion already in flight
		}
		if err := cl.err; err != nil {
			// Transport-level failure (broken connection), not a served
			// error: the round-trip error, unless the request can simply
			// be asked again.
			cl.err = nil
			if readOnly {
				lastErr = err
				continue
			}
			return err
		}
		switch cl.status {
		case statusOK:
			return nil
		case statusErr:
			code, st, msg, err := wire.DecodeError(*resp)
			if err != nil {
				return err
			}
			return &server.APIError{Code: code, Message: msg, Status: st}
		default:
			return fmt.Errorf("irsnet: unknown response status 0x%02x", cl.status)
		}
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("irsnet: no usable connection to %s", c.addr)
	}
	return lastErr
}

// conn picks the next pool slot, dialing it if empty or broken.
func (c *carrier) conn() (*clientConn, error) {
	slot := int(c.next.Add(1)-1) % c.opts.Conns
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, ErrClosed
	}
	cc := c.slots[slot]
	if cc != nil && !cc.isBroken() {
		return cc, nil
	}
	nc, err := net.DialTimeout("tcp", c.addr, c.opts.DialTimeout)
	if err != nil {
		return nil, err
	}
	cc = &clientConn{nc: nc, pending: make(map[uint64]*call)}
	go cc.readLoop()
	c.slots[slot] = cc
	return cc, nil
}

// clientConn is one pooled connection: a write path serialized by wmu, a
// pending map matching request IDs to waiting calls, and one reader
// goroutine completing them out of order.
type clientConn struct {
	nc  net.Conn
	wmu sync.Mutex // serializes whole-message writes

	pmu     sync.Mutex
	pending map[uint64]*call // nil once broken
	nextID  uint64
	broken  bool
}

func (cc *clientConn) isBroken() bool {
	cc.pmu.Lock()
	defer cc.pmu.Unlock()
	return cc.broken
}

// register assigns cl the next request ID. It reports false once the
// connection is broken (nothing was registered).
func (cc *clientConn) register(cl *call) (uint64, bool) {
	cc.pmu.Lock()
	defer cc.pmu.Unlock()
	if cc.broken {
		return 0, false
	}
	cc.nextID++
	id := cc.nextID
	cc.pending[id] = cl
	return id, true
}

// deregister removes id, reporting whether the caller reclaimed ownership
// of its call (false: a completion has been or is being delivered).
func (cc *clientConn) deregister(id uint64) bool {
	cc.pmu.Lock()
	defer cc.pmu.Unlock()
	if _, ok := cc.pending[id]; !ok {
		return false
	}
	delete(cc.pending, id)
	return true
}

// fail marks the connection broken, closes it, and completes every
// pending call with err. Idempotent; every pending call completes exactly
// once (register refuses new calls first).
func (cc *clientConn) fail(err error) {
	cc.pmu.Lock()
	if cc.broken {
		cc.pmu.Unlock()
		return
	}
	cc.broken = true
	pending := cc.pending
	cc.pending = nil
	cc.pmu.Unlock()
	_ = cc.nc.Close()
	for _, cl := range pending {
		cl.err = fmt.Errorf("irsnet: connection broken: %w", err)
		cl.done <- struct{}{}
	}
}

// readLoop completes calls as their responses arrive, in whatever order
// the server answers, reading each response frame straight into its
// call's buffer.
func (cc *clientConn) readLoop() {
	br := bufio.NewReaderSize(cc.nc, 32<<10)
	var hdr [respHeaderSize]byte
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			cc.fail(err)
			return
		}
		n := binary.LittleEndian.Uint32(hdr[0:4])
		id := binary.LittleEndian.Uint64(hdr[4:12])
		if n < minResponseLen || n > MaxMessageBytes {
			cc.fail(fmt.Errorf("irsnet: response envelope length %d out of range", n))
			return
		}
		size := int(n) - minResponseLen
		cl := cc.take(id)
		if cl == nil {
			// A cancelled (deregistered) request: drop its response.
			if _, err := br.Discard(size); err != nil {
				cc.fail(err)
				return
			}
			continue
		}
		b := *cl.resp
		if cap(b) < size {
			b = make([]byte, size)
		}
		b = b[:size]
		_, err := io.ReadFull(br, b)
		*cl.resp = b
		cl.status = hdr[12]
		if err != nil {
			cl.err = fmt.Errorf("irsnet: connection broken: %w", err)
		}
		cl.done <- struct{}{}
		if err != nil {
			cc.fail(err)
			return
		}
	}
}

// take removes and returns the call waiting on id, or nil.
func (cc *clientConn) take(id uint64) *call {
	cc.pmu.Lock()
	defer cc.pmu.Unlock()
	cl := cc.pending[id]
	delete(cc.pending, id)
	return cl
}

// call is one in-flight request's completion state. The done channel is
// 1-buffered and receives exactly one completion per round trip, so calls
// recycle through a pool.
type call struct {
	done   chan struct{}
	resp   *[]byte // the caller's buffer the response frame is read into
	status byte
	err    error // transport failure
}

var callPool = sync.Pool{New: func() any { return &call{done: make(chan struct{}, 1)} }}

func getCall() *call { return callPool.Get().(*call) }

func putCall(cl *call) {
	cl.resp, cl.status, cl.err = nil, 0, nil
	callPool.Put(cl)
}
