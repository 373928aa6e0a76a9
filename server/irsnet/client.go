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

// Client is the typed client of the irsnet protocol, presenting the same
// surface as the HTTP client (server.Client) — both satisfy the unified
// client interfaces in package client — so callers and test suites can
// treat the transport as a third encoding. It is safe for any number of concurrent goroutines:
// requests are pipelined over a small pool of persistent connections and
// matched to responses by ID, out of order. Connections dial lazily and
// re-dial after breaking. A request that fails before any of its bytes
// were written is retried on a fresh connection; so is a read-only one
// (sample, range stats, stats) whose connection broke later, since
// answering it twice changes nothing. A mutation that may have reached the
// server surfaces the connection error instead (the server may have
// executed it, and a multiset insert applied twice is stored twice).
//
// Server-side errors arrive as *server.APIError with the same codes and
// statuses as HTTP, so errors.Is against the server sentinels behaves
// identically across transports.
type Client struct {
	addr string
	opts Options
	next atomic.Uint64 // round-robin slot cursor

	mu     sync.Mutex
	slots  []*clientConn // lazily dialed; nil or broken entries re-dial
	closed bool
}

// NewClient returns a client for the irsnet listener at addr (host:port).
// No connection is made until the first request.
func NewClient(addr string, opts Options) *Client {
	opts = opts.withDefaults()
	return &Client{addr: addr, opts: opts, slots: make([]*clientConn, opts.Conns)}
}

// Close closes every connection; calls in flight fail with a connection
// error wrapping ErrClosed, later calls fail with ErrClosed.
func (c *Client) Close() error {
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

// Sample requests t independent samples from [lo, hi] of dataset (empty
// selects the daemon's sole dataset).
func (c *Client) Sample(ctx context.Context, dataset string, lo, hi float64, t int) ([]float64, error) {
	return c.SampleAppend(ctx, dataset, nil, lo, hi, t)
}

// SampleAppend is Sample appending into dst, so callers issuing many
// requests can reuse one result buffer. On error dst is returned
// unchanged.
func (c *Client) SampleAppend(ctx context.Context, dataset string, dst []float64, lo, hi float64, t int) ([]float64, error) {
	cl := getCall()
	cl.kind = callSample
	cl.dst = dst
	buf := wire.GetBuf()
	b := appendReqHeader((*buf)[:0])
	b, err := wire.EncodeSampleRequest(b, wire.SampleReq{Dataset: dataset, Lo: lo, Hi: hi, T: t})
	*buf = b
	if err == nil {
		err = c.roundTrip(ctx, buf, cl)
	}
	wire.PutBuf(buf)
	if err != nil {
		putCall(cl)
		return dst, err
	}
	out, err := cl.samples, cl.err
	putCall(cl)
	if err != nil {
		return dst, err
	}
	return out, nil
}

// InsertKeys stores keys with unit weight, returning how many were stored.
func (c *Client) InsertKeys(ctx context.Context, dataset string, keys []float64) (int, error) {
	return c.insert(ctx, wire.InsertReq{Dataset: dataset, Keys: keys})
}

// InsertItems stores weighted items, returning how many were stored.
func (c *Client) InsertItems(ctx context.Context, dataset string, items []server.Item) (int, error) {
	return c.insert(ctx, wire.InsertReq{Dataset: dataset, Items: items})
}

func (c *Client) insert(ctx context.Context, req wire.InsertReq) (int, error) {
	return c.countCall(ctx, func(b []byte) ([]byte, error) {
		return wire.EncodeInsertRequest(b, req)
	})
}

// Delete removes one occurrence of each key, returning how many were
// present and removed.
func (c *Client) Delete(ctx context.Context, dataset string, keys []float64) (int, error) {
	return c.countCall(ctx, func(b []byte) ([]byte, error) {
		return wire.EncodeDeleteRequest(b, wire.DeleteReq{Dataset: dataset, Keys: keys})
	})
}

// Update sets the weight of one occurrence of each item's key on a
// weighted dataset, returning how many keys were present and re-weighted.
// Unweighted datasets answer ErrNotWeighted.
func (c *Client) Update(ctx context.Context, dataset string, items []server.Item) (int, error) {
	return c.countCall(ctx, func(b []byte) ([]byte, error) {
		return wire.EncodeUpdateRequest(b, wire.UpdateReq{Dataset: dataset, Items: items})
	})
}

// countCall runs one request whose response is a u32 count — the shape
// insert, delete, and update share.
func (c *Client) countCall(ctx context.Context, encode func([]byte) ([]byte, error)) (int, error) {
	cl := getCall()
	buf := wire.GetBuf()
	b := appendReqHeader((*buf)[:0])
	b, err := encode(b)
	*buf = b
	if err == nil {
		err = c.roundTrip(ctx, buf, cl)
	}
	wire.PutBuf(buf)
	if err != nil {
		putCall(cl)
		return 0, err
	}
	n, err := cl.n, cl.err
	putCall(cl)
	return n, err
}

// Stats fetches the serving snapshot of every dataset. The document
// travels as JSON inside a stats frame — it is a scrape, not a hot path.
func (c *Client) Stats(ctx context.Context) (server.Stats, error) {
	cl := getCall()
	cl.kind = callStats
	buf := wire.GetBuf()
	b := appendReqHeader((*buf)[:0])
	b = wire.EncodeStatsRequest(b)
	*buf = b
	err := c.roundTrip(ctx, buf, cl)
	wire.PutBuf(buf)
	if err != nil {
		putCall(cl)
		return server.Stats{}, err
	}
	out, err := cl.stats, cl.err
	cl.stats = server.Stats{}
	putCall(cl)
	return out, err
}

// RangeStats returns the in-range key count and sampling mass of [lo, hi]
// — the probe the cluster router splits its cross-partition multinomial
// with.
func (c *Client) RangeStats(ctx context.Context, dataset string, lo, hi float64) (int, float64, error) {
	cl := getCall()
	cl.kind = callRangeStats
	buf := wire.GetBuf()
	b := appendReqHeader((*buf)[:0])
	b, err := wire.EncodeRangeStatsRequest(b, wire.RangeStatsReq{Dataset: dataset, Lo: lo, Hi: hi})
	*buf = b
	if err == nil {
		err = c.roundTrip(ctx, buf, cl)
	}
	wire.PutBuf(buf)
	if err != nil {
		putCall(cl)
		return 0, 0, err
	}
	n, mass, err := cl.n, cl.mass, cl.err
	putCall(cl)
	return n, mass, err
}

// appendReqHeader reserves the message envelope (length + ID, patched at
// send time) ahead of the frame.
func appendReqHeader(b []byte) []byte {
	b = wire.AppendU32(b, 0)
	return wire.AppendU64(b, 0)
}

// roundTrip sends the assembled message (envelope placeholder + frame) and
// blocks until cl completes or ctx is done, making up to three attempts
// where a retry is safe (see Client). On success cl holds the decoded
// result; the transport-level error (dial, write, broken conn,
// cancellation) is the return value.
func (c *Client) roundTrip(ctx context.Context, buf *[]byte, cl *call) error {
	readOnly := cl.kind != callCount
	msg := *buf
	binary.LittleEndian.PutUint32(msg[0:4], uint32(len(msg)-4))
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
			if cl.err != nil {
				if _, ok := cl.err.(*server.APIError); !ok {
					// Transport-level failure (broken connection), not a
					// served error: the round-trip error, unless the
					// request can simply be asked again.
					err := cl.err
					cl.err = nil
					if readOnly {
						lastErr = err
						continue
					}
					return err
				}
			}
			return nil
		case <-ctx.Done():
			if cc.deregister(id) {
				// The reader had not picked it up; cl is ours again. The
				// server will still answer — the response is dropped on
				// arrival (unknown ID).
				return ctx.Err()
			}
			<-cl.done // completion already in flight
			return nil
		}
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("irsnet: no usable connection to %s", c.addr)
	}
	return lastErr
}

// conn picks the next pool slot, dialing it if empty or broken.
func (c *Client) conn() (*clientConn, error) {
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
// the server answers.
func (cc *clientConn) readLoop() {
	br := bufio.NewReaderSize(cc.nc, 32<<10)
	var hdr [12]byte
	var buf []byte
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
		bodyLen := int(n) - 8
		if cap(buf) < bodyLen {
			buf = make([]byte, bodyLen)
		}
		body := buf[:bodyLen]
		if _, err := io.ReadFull(br, body); err != nil {
			cc.fail(err)
			return
		}
		cc.complete(id, body[0], body[1:])
	}
}

// complete matches one response to its call and decodes it. An unknown ID
// belongs to a cancelled (deregistered) request; the response is dropped.
func (cc *clientConn) complete(id uint64, status byte, payload []byte) {
	cc.pmu.Lock()
	cl := cc.pending[id]
	delete(cc.pending, id)
	cc.pmu.Unlock()
	if cl == nil {
		return
	}
	switch status {
	case statusOK:
		switch cl.kind {
		case callSample:
			cl.samples, cl.err = wire.DecodeSampleResponse(payload, cl.dst)
		case callStats:
			cl.err = json.Unmarshal(payload, &cl.stats)
		case callRangeStats:
			cl.n, cl.mass, cl.err = wire.DecodeRangeStatsResponse(payload)
		default:
			cl.n, cl.err = wire.DecodeInsertResponse(payload)
		}
	case statusErr:
		code, st, msg, err := wire.DecodeError(payload)
		if err != nil {
			cl.err = err
		} else {
			cl.err = &server.APIError{Code: code, Message: msg, Status: st}
		}
	default:
		cl.err = fmt.Errorf("irsnet: unknown response status 0x%02x", status)
	}
	cl.done <- struct{}{}
}

// Response-decode kinds of a call. The zero value is callCount — the u32
// count shape insert, delete, and update share — so pooled calls default
// correctly after reset.
const (
	callCount = iota
	callSample
	callStats
	callRangeStats
)

// call is one in-flight request's completion state. The done channel is
// 1-buffered and receives exactly one completion per round trip, so calls
// recycle through a pool.
type call struct {
	done    chan struct{}
	kind    uint8
	dst     []float64 // sample: caller's append target
	samples []float64 // sample result
	n       int       // count result (insert/delete/update/rangestats count)
	mass    float64   // rangestats mass
	stats   server.Stats
	err     error
}

var callPool = sync.Pool{New: func() any { return &call{done: make(chan struct{}, 1)} }}

func getCall() *call { return callPool.Get().(*call) }

func putCall(cl *call) {
	cl.kind, cl.dst, cl.samples, cl.n, cl.mass, cl.err = callCount, nil, nil, 0, 0, nil
	callPool.Put(cl)
}
