package daemon

import (
	"context"
	"errors"
	"io"
	"net"
	"sync"
	"time"

	"github.com/irsgo/irs/server/irsnet"
)

// Split serves two protocols on one listener. It accepts on ln and hands
// each connection to the irsnet listener when its first four bytes say so
// (irsnet.Sniff), to the HTTP listener otherwise, with those bytes replayed
// on the connection's read side. The sniff runs on a goroutine per
// connection under a read deadline of timeout, so a client that never
// sends four bytes is closed after timeout and never stalls an accept.
//
// Closing both returned listeners closes ln and every connection still
// being sniffed. An accept error on ln ends both with that error when it
// is net.ErrClosed (ln was closed under Split); any other — running out of
// file descriptors — is retried with backoff, as net/http does.
func Split(ln net.Listener, timeout time.Duration) (httpL, irsnetL net.Listener) {
	s := split(ln, timeout)
	return s.http, s.irsnet
}

type splitter struct {
	ln           net.Listener
	timeout      time.Duration
	http, irsnet *route
	done         chan struct{} // closed when accepting failed on its own
	err          error         // why; set before done closes
	accepting    chan struct{} // closed when the accept loop has returned
	sniffs       sync.WaitGroup

	mu       sync.Mutex
	stopped  bool                  // ln was closed by drain or stop, not under Split
	open     int                   // routes not yet closed
	sniffing map[net.Conn]struct{} // nil once stop has closed them
}

func split(ln net.Listener, timeout time.Duration) *splitter {
	s := &splitter{ln: ln, timeout: timeout, done: make(chan struct{}), accepting: make(chan struct{}), open: 2, sniffing: make(map[net.Conn]struct{})}
	s.http, s.irsnet = s.newRoute(), s.newRoute()
	go s.acceptLoop()
	return s
}

func (s *splitter) acceptLoop() {
	defer close(s.accepting)
	var backoff time.Duration
	for {
		nc, err := s.ln.Accept()
		if err != nil {
			s.mu.Lock()
			stopped := s.stopped
			s.mu.Unlock()
			switch {
			case stopped:
				return
			case errors.Is(err, net.ErrClosed):
				s.err = err
				close(s.done)
				return
			}
			backoff = min(max(2*backoff, 5*time.Millisecond), time.Second)
			time.Sleep(backoff)
			continue
		}
		backoff = 0
		s.mu.Lock()
		if s.sniffing == nil {
			s.mu.Unlock()
			_ = nc.Close()
			continue
		}
		s.sniffing[nc] = struct{}{}
		s.sniffs.Add(1)
		s.mu.Unlock()
		go s.sniff(nc)
	}
}

// sniff peeks at nc and hands it to its route.
func (s *splitter) sniff(nc net.Conn) {
	defer s.sniffs.Done()
	c, isIrsnet, ok := peek(nc, s.timeout)
	s.mu.Lock()
	_, tracked := s.sniffing[nc]
	delete(s.sniffing, nc)
	s.mu.Unlock()
	switch {
	case !ok || !tracked: // an untracked conn was already closed by stop
		_ = nc.Close()
	case isIrsnet:
		s.irsnet.deliver(c)
	default:
		s.http.deliver(c)
	}
}

// peek reads nc's first four bytes under a deadline of timeout and
// returns nc with them replayed, and whether it speaks irsnet. A
// connection that ends sooner is HTTP with what it sent (net/http closes
// it, as it always did); one that stalls past the deadline or fails is
// not ok, to be closed.
func peek(nc net.Conn, timeout time.Duration) (c net.Conn, isIrsnet, ok bool) {
	head := make([]byte, 4)
	_ = nc.SetReadDeadline(time.Now().Add(timeout))
	n, err := io.ReadFull(nc, head)
	_ = nc.SetReadDeadline(time.Time{})
	if err != nil && !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
		return nil, false, false
	}
	return replay(nc, head[:n]), irsnet.Sniff(head[:n]), true
}

// drain stops accepting and waits until every connection already accepted
// has been handed to its server, so a server shut down afterwards answers
// what such a client sent; at ctx's end the rest are closed. The routes
// stay open for their servers' own Shutdown.
func (s *splitter) drain(ctx context.Context) {
	s.mu.Lock()
	s.stopped = true
	s.mu.Unlock()
	_ = s.ln.Close()
	<-s.accepting // no sniff starts after this
	done := make(chan struct{})
	go func() { s.sniffs.Wait(); close(done) }()
	select {
	case <-done:
	case <-ctx.Done():
		s.stop()
	}
}

// stop closes ln and every connection still being sniffed.
func (s *splitter) stop() {
	s.mu.Lock()
	s.stopped = true
	stale := s.sniffing
	s.sniffing = nil
	s.mu.Unlock()
	_ = s.ln.Close()
	for nc := range stale {
		_ = nc.Close()
	}
}

// route is one protocol's side of the split: a net.Listener whose Accept
// takes the connections the sniff hands it.
type route struct {
	s      *splitter
	conns  chan net.Conn // unbuffered: a hand-off completes or the conn is closed
	closed chan struct{}
	once   sync.Once
}

func (s *splitter) newRoute() *route {
	return &route{s: s, conns: make(chan net.Conn), closed: make(chan struct{})}
}

func (r *route) deliver(c net.Conn) {
	select {
	case r.conns <- c:
	case <-r.closed:
		_ = c.Close()
	case <-r.s.done:
		_ = c.Close()
	}
}

func (r *route) Accept() (net.Conn, error) {
	select {
	case c := <-r.conns:
		return c, nil
	case <-r.closed:
		return nil, net.ErrClosed
	case <-r.s.done:
		return nil, r.s.err
	}
}

// Close stops this route; the last one to close stops the splitter.
func (r *route) Close() error {
	r.once.Do(func() {
		close(r.closed)
		r.s.mu.Lock()
		r.s.open--
		last := r.s.open == 0
		r.s.mu.Unlock()
		if last {
			r.s.stop()
		}
	})
	return nil
}

func (r *route) Addr() net.Addr { return r.s.ln.Addr() }

// replay returns nc with head read back before the rest of its stream.
func replay(nc net.Conn, head []byte) net.Conn {
	if tc, ok := nc.(*net.TCPConn); ok {
		return &replayedTCP{TCPConn: tc, head: head}
	}
	return &replayed{Conn: nc, head: head}
}

// replayedTCP overrides only the read side of a *net.TCPConn. Every other
// method stays promoted — among them the gathered write net.Buffers.WriteTo
// looks for, through which irsnet's writer sends a batch of responses in
// one writev.
type replayedTCP struct {
	*net.TCPConn
	head []byte
}

func (c *replayedTCP) Read(p []byte) (int, error) { return replayRead(&c.head, c.TCPConn, p) }

// WriteTo shadows (*net.TCPConn).WriteTo, which would skip head.
func (c *replayedTCP) WriteTo(w io.Writer) (int64, error) {
	return io.Copy(w, struct{ io.Reader }{c})
}

// replayed is replayedTCP for any other net.Conn.
type replayed struct {
	net.Conn
	head []byte
}

func (c *replayed) Read(p []byte) (int, error) { return replayRead(&c.head, c.Conn, p) }

func replayRead(head *[]byte, r io.Reader, p []byte) (int, error) {
	if len(*head) == 0 {
		return r.Read(p)
	}
	n := copy(p, *head)
	*head = (*head)[n:]
	return n, nil
}
