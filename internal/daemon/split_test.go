package daemon

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/irsgo/irs/server"
	"github.com/irsgo/irs/server/irsnet"
)

// FuzzSniff: whatever a client sends first — in whatever pieces, ending
// before four bytes or not — peek never panics, hands the connection on
// with exactly the bytes that were sent, and picks irsnet exactly when the
// fourth byte is 0: so every HTTP request net/http can parse goes to HTTP,
// and every well-formed irsnet envelope goes to irsnet.
func FuzzSniff(f *testing.F) {
	envelope := func(n uint32) []byte {
		b := binary.LittleEndian.AppendUint32(nil, n)
		b = binary.LittleEndian.AppendUint64(b, 1)
		return append(b, 0x01)
	}
	for _, seed := range [][]byte{
		[]byte("GET / HTTP/1.1\r\nHost: irsd\r\n\r\n"),
		[]byte("POST /sample HTTP/1.1\r\nHost: irsd\r\nContent-Length: 2\r\n\r\n{}"),
		[]byte("PRI * HTTP/2.0\r\n\r\nSM\r\n\r\n"),
		[]byte("\r\nGET / HTTP/1.1\r\nHost: irsd\r\n\r\n"),
		envelope(9),
		envelope(irsnet.MaxMessageBytes),
		[]byte("GE"),
		nil,
	} {
		f.Add(seed, uint8(1))
		f.Add(seed, uint8(0))
	}
	f.Fuzz(func(t *testing.T, data []byte, piece uint8) {
		client, srv := net.Pipe()
		go func() {
			// Pieces of piece bytes (0: all at once) make the sniff's reads
			// short.
			for rest := data; len(rest) > 0; {
				n := len(rest)
				if piece > 0 {
					n = min(n, int(piece))
				}
				if _, err := client.Write(rest[:n]); err != nil {
					return
				}
				rest = rest[n:]
			}
			_ = client.Close()
		}()
		c, isIrsnet, ok := peek(srv, 5*time.Second)
		if !ok {
			t.Fatalf("%q: not routed", data)
		}
		if want := len(data) >= 4 && data[3] == 0; isIrsnet != want {
			t.Fatalf("%q: irsnet = %v, want %v", data, isIrsnet, want)
		}
		got, err := io.ReadAll(c)
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("%q: the routed connection reads %q (%v)", data, got, err)
		}
		if _, err := http.ReadRequest(bufio.NewReader(bytes.NewReader(data))); err == nil && isIrsnet {
			t.Fatalf("%q: an HTTP request went to irsnet", data)
		}
		if len(data) >= 4 {
			if n := binary.LittleEndian.Uint32(data); n >= 9 && n <= irsnet.MaxMessageBytes && !isIrsnet {
				t.Fatalf("%q: an irsnet envelope went to HTTP", data)
			}
		}
	})
}

// TestHandedOffConnKeepsGatheredWrite: the connection irsnet gets from the
// shared port is the accepted *net.TCPConn with only its read side
// replaced. Every *net.TCPConn method is promoted — the unexported gathered
// write net.Buffers.WriteTo looks for with them — so a batch of responses
// still leaves in one writev, counted here in the process's write syscalls
// against a wrapper that hides it.
func TestHandedOffConnKeepsGatheredWrite(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	httpL, irsnetL := Split(ln, 5*time.Second)
	defer httpL.Close()
	defer irsnetL.Close()
	client, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if _, err := client.Write([]byte{9, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	handed, err := irsnetL.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer handed.Close()

	tcp, got := reflect.TypeOf((*net.TCPConn)(nil)), reflect.TypeOf(handed)
	for i := 0; i < tcp.NumMethod(); i++ {
		if _, ok := got.MethodByName(tcp.Method(i).Name); !ok {
			t.Errorf("the handed-off %v lacks (*net.TCPConn).%s", got, tcp.Method(i).Name)
		}
	}
	head := make([]byte, 4)
	if _, err := io.ReadFull(handed, head); err != nil || !bytes.Equal(head, []byte{9, 0, 0, 0}) {
		t.Fatalf("replayed head: %v, %v", head, err)
	}

	go func() { _, _ = io.Copy(io.Discard, client) }()
	const pieces = 64
	writes := func(w io.Writer) int {
		before := syscw(t)
		bufs := make(net.Buffers, pieces)
		for i := range bufs {
			bufs[i] = []byte("response")
		}
		if _, err := bufs.WriteTo(w); err != nil {
			t.Fatal(err)
		}
		return syscw(t) - before
	}
	if hidden := writes(struct{ net.Conn }{handed}); hidden < pieces {
		t.Skipf("write syscalls are not counted here (%d for %d plain writes)", hidden, pieces)
	}
	if n := writes(handed); n > 2 {
		t.Errorf("%d pieces through the handed-off conn took %d write syscalls, want one writev", pieces, n)
	}
}

// syscw reads this process's write-syscall count.
func syscw(t *testing.T) int {
	t.Helper()
	b, err := os.ReadFile("/proc/self/io")
	if err != nil {
		t.Skipf("no /proc/self/io: %v", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "syscw: "); ok {
			n, err := strconv.Atoi(v)
			if err != nil {
				t.Fatal(err)
			}
			return n
		}
	}
	t.Skip("no syscw in /proc/self/io")
	return 0
}

// gatedBackend holds every sample until released, so a request stays in
// flight across a drain. Only the methods below are called.
type gatedBackend struct {
	server.Backend
	held, release chan struct{}
}

func (b *gatedBackend) SampleAppendAsync(_ string, dst []float64, lo, _ float64, _ int, _ *server.SampleStats, done server.SampleReply) error {
	go func() {
		b.held <- struct{}{}
		<-b.release
		done.Deliver(append(dst, lo), nil)
	}()
	return nil
}

func (*gatedBackend) AppendMetrics(dst []byte) []byte { return dst }
func (*gatedBackend) Close() error                    { return nil }

// TestSharedPortDrain: without -tcp-addr the stdout contract is unchanged —
// the serving line, then the bye — and irsnet answers on the HTTP port. A
// request read before SIGTERM is answered during the drain, and once the
// daemon says bye the port refuses connections.
func TestSharedPortDrain(t *testing.T) {
	b := &gatedBackend{held: make(chan struct{}), release: make(chan struct{})}
	app := testApp(func(*Common, *slog.Logger) (Instance, error) {
		return Instance{Server: server.NewProxy(b)}, nil
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	lines, exit := boot(ctx, nil, app)
	addr := nextLine(t, lines, "testd: serving on http://")

	cl := irsnet.NewClient(addr, irsnet.Options{Conns: 1})
	defer cl.Close()
	answer := make(chan error, 1)
	go func() {
		out, err := cl.Sample(context.Background(), "d", 7, 9, 1)
		if err == nil && (len(out) != 1 || out[0] != 7) {
			err = errors.New("wrong answer")
		}
		answer <- err
	}()
	<-b.held // read by the daemon and in flight

	cancel()
	select {
	case code := <-exit:
		t.Fatalf("daemon exited %d with an irsnet request in flight", code)
	case err := <-answer:
		t.Fatalf("request answered before its release: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	close(b.release)
	if err := <-answer; err != nil {
		t.Fatalf("irsnet request in flight on the HTTP port during the drain: %v", err)
	}
	nextLine(t, lines, "testd: drained, bye")
	if code := waitExit(t, lines, exit); code != 0 {
		t.Fatalf("exit %d after a clean drain, want 0", code)
	}
	if c, err := net.Dial("tcp", addr); err == nil {
		c.Close()
		t.Fatalf("port %s still accepts after the drain", addr)
	}
}

// TestSilentConnsDoNotStallPort: clients that connect and never send four
// bytes hold neither HTTP nor irsnet callers on the same port — the sniff
// runs per connection, never on the accept loop — and are closed after
// -read-header-timeout.
func TestSilentConnsDoNotStallPort(t *testing.T) {
	s := durableServer(t, t.TempDir())
	app := testApp(func(*Common, *slog.Logger) (Instance, error) { return Instance{Server: s}, nil })
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const timeout = time.Second
	lines, exit := boot(ctx, nil, app, "-read-header-timeout", timeout.String())
	addr := nextLine(t, lines, "testd: serving on http://")

	start := time.Now()
	silent := make([]net.Conn, 64)
	for i := range silent {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if i%2 == 1 {
			_, _ = c.Write([]byte("GE")) // some bytes, never four
		}
		silent[i] = c
	}

	resp, err := http.Get("http://" + addr + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/readyz beside silent connections: %d", resp.StatusCode)
	}
	cl := irsnet.NewClient(addr, irsnet.Options{})
	defer cl.Close()
	if n, err := cl.InsertKeys(ctx, "du", []float64{1, 2, 3}); err != nil || n != 3 {
		t.Fatalf("irsnet insert beside silent connections: %d, %v", n, err)
	}
	if out, err := cl.Sample(ctx, "du", 0, 10, 4); err != nil || len(out) != 4 {
		t.Fatalf("irsnet sample beside silent connections: %v, %v", out, err)
	}
	if waited := time.Since(start); waited >= timeout {
		t.Fatalf("HTTP and irsnet were answered only after %v, the silent connections' timeout", waited)
	}

	for i, c := range silent {
		_ = c.SetReadDeadline(start.Add(10 * timeout))
		if _, err := c.Read(make([]byte, 1)); !errors.Is(err, io.EOF) {
			t.Fatalf("silent connection %d: read %v, want EOF (closed by the daemon)", i, err)
		}
	}
	if waited := time.Since(start); waited < timeout-100*time.Millisecond {
		t.Fatalf("silent connections closed after %v, before the %v timeout", waited, timeout)
	}

	cancel()
	nextLine(t, lines, "testd: drained, bye")
	if code := waitExit(t, lines, exit); code != 0 {
		t.Fatalf("exit %d, want 0", code)
	}
}
