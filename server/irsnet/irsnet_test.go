package irsnet_test

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	irs "github.com/irsgo/irs"
	srv "github.com/irsgo/irs/internal/server"
	"github.com/irsgo/irs/server"
	"github.com/irsgo/irs/server/irsnet"
)

// newBackend builds the standard two-dataset serving backend: unweighted
// "u" (keys 0..n-1) and weighted "w" (keys 0..99, weight k+1), both
// seeded, so sample streams are deterministic under Flushers:1 with
// sequential requests.
func newBackend(t testing.TB, cfg server.Config, n int, seed uint64) *server.Server {
	t.Helper()
	s := server.New(cfg)
	keys := make([]float64, n)
	for i := range keys {
		keys[i] = float64(i)
	}
	u, err := irs.NewConcurrentFromSortedSeeded(keys, 4, seed)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddUnweighted("u", u); err != nil {
		t.Fatal(err)
	}
	w := irs.NewWeightedConcurrent[float64](4, seed)
	items := make([]irs.WeightedItem[float64], 100)
	for i := range items {
		items[i] = irs.WeightedItem[float64]{Key: float64(i), Weight: float64(i + 1)}
	}
	if err := w.InsertBatch(items); err != nil {
		t.Fatal(err)
	}
	if err := s.AddWeighted("w", w); err != nil {
		t.Fatal(err)
	}
	return s
}

// startTCP serves s over irsnet on a loopback listener, returning the
// dialable address and a graceful stop.
func startTCP(t testing.TB, s *server.Server) (string, *irsnet.Server, func()) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ts := irsnet.NewServer(s)
	served := make(chan error, 1)
	go func() { served <- ts.Serve(l) }()
	addr := l.Addr().String()
	stop := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := ts.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-served; err != nil {
			t.Errorf("serve: %v", err)
		}
	}
	return addr, ts, stop
}

// newTCPDaemon is the all-in-one helper: backend + irsnet server + client.
func newTCPDaemon(t testing.TB, cfg server.Config, n int, seed uint64, opts irsnet.Options) (*irsnet.Client, *server.Server, func()) {
	t.Helper()
	s := newBackend(t, cfg, n, seed)
	addr, _, stopTCP := startTCP(t, s)
	cl := irsnet.NewClient(addr, opts)
	return cl, s, func() {
		cl.Close()
		stopTCP()
		s.Close()
	}
}

// TestTCPRoundTrip drives the insert/sample cycle over the persistent
// transport against both dataset kinds.
func TestTCPRoundTrip(t *testing.T) {
	cl, _, stop := newTCPDaemon(t, server.Config{}, 1000, 11, irsnet.Options{})
	defer stop()
	ctx := context.Background()

	if n, err := cl.InsertKeys(ctx, "u", []float64{5000, 5001, 5002}); err != nil || n != 3 {
		t.Fatalf("InsertKeys: %d, %v", n, err)
	}
	out, err := cl.Sample(ctx, "u", 5000, 5002, 12)
	if err != nil || len(out) != 12 {
		t.Fatalf("Sample: %v, %v", out, err)
	}
	for _, k := range out {
		if k < 5000 || k > 5002 {
			t.Fatalf("sample %g out of range", k)
		}
	}
	// SampleAppend reuses the caller's buffer across requests.
	buf := out[:0]
	for i := 0; i < 5; i++ {
		buf, err = cl.SampleAppend(ctx, "u", buf[:0], 5000, 5002, 3)
		if err != nil || len(buf) != 3 {
			t.Fatalf("SampleAppend: %v, %v", buf, err)
		}
	}
	// Weighted inserts carry their weights.
	if n, err := cl.InsertItems(ctx, "w", []server.Item{{Key: 7000, Weight: 1e9}}); err != nil || n != 1 {
		t.Fatalf("InsertItems: %d, %v", n, err)
	}
	wout, err := cl.Sample(ctx, "w", 0, 8000, 50)
	if err != nil {
		t.Fatal(err)
	}
	dominated := 0
	for _, k := range wout {
		if k == 7000 {
			dominated++
		}
	}
	if dominated < 45 {
		t.Fatalf("dominating weight sampled only %d/50 times", dominated)
	}
	// Empty inserts are answered (inline on the server) rather than hung.
	if n, err := cl.InsertKeys(ctx, "u", nil); err != nil || n != 0 {
		t.Fatalf("empty insert: %d, %v", n, err)
	}
}

// TestThreeEncodingsIdenticalSamples extends the fixed-seed equivalence
// pin to the third encoding: JSON over HTTP, binary over HTTP, and binary
// over TCP must produce bit-identical sample streams for the identical
// sequential request sequence against identically seeded daemons.
func TestThreeEncodingsIdenticalSamples(t *testing.T) {
	ctx := context.Background()
	const seed = 99

	run := func(encoding string) [][]float64 {
		s := newBackend(t, server.Config{Flushers: 1}, 1000, seed)
		defer s.Close()
		switch encoding {
		case "tcp":
			addr, _, stopTCP := startTCP(t, s)
			defer stopTCP()
			cl := irsnet.NewClient(addr, irsnet.Options{Conns: 1})
			defer cl.Close()
			return driveSamples(t, ctx, encoding, cl)
		case "binary":
			ts := httptest.NewServer(s)
			defer ts.Close()
			return driveSamples(t, ctx, encoding, server.NewBinaryClient(ts.URL))
		default:
			ts := httptest.NewServer(s)
			defer ts.Close()
			return driveSamples(t, ctx, encoding, server.NewClient(ts.URL))
		}
	}

	jsonOut := run("json")
	for _, encoding := range []string{"binary", "tcp"} {
		got := run(encoding)
		if len(got) != len(jsonOut) {
			t.Fatalf("%s: %d responses, want %d", encoding, len(got), len(jsonOut))
		}
		for i := range jsonOut {
			if len(got[i]) != len(jsonOut[i]) {
				t.Fatalf("%s request %d: %d samples, want %d", encoding, i, len(got[i]), len(jsonOut[i]))
			}
			for j := range jsonOut[i] {
				if got[i][j] != jsonOut[i][j] {
					t.Fatalf("%s request %d sample %d: %v, want %v", encoding, i, j, got[i][j], jsonOut[i][j])
				}
			}
		}
	}
}

// sampler is the part of client.Conn the fixed-seed sample rows drive.
type sampler interface {
	InsertKeys(ctx context.Context, dataset string, keys []float64) (int, error)
	InsertItems(ctx context.Context, dataset string, items []server.Item) (int, error)
	Sample(ctx context.Context, dataset string, lo, hi float64, t int) ([]float64, error)
}

// driveSamples runs the fixed-seed sample rows: an insert of keys and one
// of items into each dataset, then 20 samples of growing t from each.
func driveSamples(t *testing.T, ctx context.Context, encoding string, cl sampler) [][]float64 {
	t.Helper()
	var out [][]float64
	for _, ds := range []string{"u", "w"} {
		if n, err := cl.InsertKeys(ctx, ds, []float64{1e4, 1e4 + 1}); err != nil || n != 2 {
			t.Fatalf("insert keys (%s): %d, %v", encoding, n, err)
		}
		if n, err := cl.InsertItems(ctx, ds, []server.Item{{Key: 2e4, Weight: 3.5}}); err != nil || n != 1 {
			t.Fatalf("insert items (%s): %d, %v", encoding, n, err)
		}
		for i := 0; i < 20; i++ {
			samples, err := cl.Sample(ctx, ds, 0, 3e4, 7+i)
			if err != nil {
				t.Fatalf("sample (%s): %v", encoding, err)
			}
			out = append(out, samples)
		}
	}
	return out
}

// TestTCPErrorPaths mirrors the HTTP/binary error-path suite over the
// persistent transport: every typed error arrives as an *server.APIError
// carrying the same wire code and HTTP-compatible status, so errors.Is
// behaves identically across all three encodings.
func TestTCPErrorPaths(t *testing.T) {
	cl, _, stop := newTCPDaemon(t, server.Config{}, 1000, 11, irsnet.Options{})
	defer stop()
	ctx := context.Background()

	cases := []struct {
		name   string
		do     func() error
		want   error
		status int
	}{
		{"inverted range", func() error { _, err := cl.Sample(ctx, "u", 10, 0, 1); return err }, server.ErrInvalidRange, 400},
		{"t=0", func() error { _, err := cl.Sample(ctx, "u", 0, 10, 0); return err }, server.ErrInvalidCount, 400},
		{"t<0", func() error { _, err := cl.Sample(ctx, "u", 0, 10, -1); return err }, server.ErrInvalidCount, 400},
		{"unknown dataset", func() error { _, err := cl.Sample(ctx, "zzz", 0, 10, 1); return err }, server.ErrUnknownDataset, 404},
		{"ambiguous dataset", func() error { _, err := cl.Sample(ctx, "", 0, 10, 1); return err }, server.ErrAmbiguousDataset, 400},
		{"empty range", func() error { _, err := cl.Sample(ctx, "u", 5000, 6000, 1); return err }, server.ErrEmptyRange, 422},
		{"invalid weight", func() error {
			_, err := cl.InsertItems(ctx, "w", []server.Item{{Key: 1, Weight: -1}})
			return err
		}, server.ErrInvalidWeight, 400},
	}
	for _, tc := range cases {
		err := tc.do()
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
			continue
		}
		var api *server.APIError
		if !errors.As(err, &api) || api.Status != tc.status {
			t.Errorf("%s: api error = %+v, want status %d", tc.name, api, tc.status)
		}
	}
}

// coreConn presents the in-process serving core through the client method
// set, so TestNaNRejected drives it with the table the wire clients get.
type coreConn struct{ core *srv.Core[float64] }

func (c coreConn) Sample(_ context.Context, ds string, lo, hi float64, t int) ([]float64, error) {
	return c.core.Sample(ds, lo, hi, t)
}
func (c coreConn) InsertItems(_ context.Context, ds string, items []server.Item) (int, error) {
	return c.core.Insert(ds, items)
}
func (c coreConn) Delete(_ context.Context, ds string, keys []float64) (int, error) {
	return c.core.Delete(ds, keys)
}
func (c coreConn) Update(_ context.Context, ds string, items []server.Item) (int, error) {
	return c.core.Update(ds, items)
}
func (c coreConn) RangeStats(_ context.Context, ds string, lo, hi float64) (int, float64, error) {
	return c.core.RangeStats(ds, lo, hi)
}

// TestNaNRejected: NaN has no place in the key order, so a NaN key or
// bound is refused with ErrInvalidRange before it can reach a structure —
// through the core and through both carriers of the frames, which carry
// raw float64s (JSON cannot spell NaN). The datasets are left untouched, and
// the neighbouring legal values — infinite bounds, both zeros as keys —
// are still served.
func TestNaNRejected(t *testing.T) {
	type conn interface {
		Sample(ctx context.Context, dataset string, lo, hi float64, t int) ([]float64, error)
		InsertItems(ctx context.Context, dataset string, items []server.Item) (int, error)
		Delete(ctx context.Context, dataset string, keys []float64) (int, error)
		Update(ctx context.Context, dataset string, items []server.Item) (int, error)
		RangeStats(ctx context.Context, dataset string, lo, hi float64) (int, float64, error)
	}
	ctx := context.Background()
	nan, inf := math.NaN(), math.Inf(1)
	negZero := math.Copysign(0, -1)

	check := func(t *testing.T, cl conn, rawMutations bool) {
		lens := func() (u, w int) {
			u, _, err := cl.RangeStats(ctx, "u", -inf, inf)
			if err != nil {
				t.Fatalf("rangestats(-Inf, +Inf) on u: %v", err)
			}
			w, _, err = cl.RangeStats(ctx, "w", -inf, inf)
			if err != nil {
				t.Fatalf("rangestats(-Inf, +Inf) on w: %v", err)
			}
			return u, w
		}
		u0, w0 := lens()
		if u0 != 1000 || w0 != 100 {
			t.Fatalf("preload: u=%d w=%d", u0, w0)
		}

		cases := []struct {
			name string
			raw  bool // carried as raw float64 only by the frames and in process
			do   func() error
		}{
			{"sample lo", false, func() error { _, err := cl.Sample(ctx, "u", nan, 10, 1); return err }},
			{"sample hi", false, func() error { _, err := cl.Sample(ctx, "u", 0, nan, 1); return err }},
			{"rangestats lo", false, func() error { _, _, err := cl.RangeStats(ctx, "u", nan, 10); return err }},
			{"rangestats hi", false, func() error { _, _, err := cl.RangeStats(ctx, "w", 0, nan); return err }},
			{"insert", false, func() error {
				_, err := cl.InsertItems(ctx, "u", []server.Item{{Key: nan, Weight: 1}, {Key: 5.5, Weight: 1}, {Key: nan, Weight: 1}})
				return err
			}},
			{"insert weighted", false, func() error {
				_, err := cl.InsertItems(ctx, "w", []server.Item{{Key: 5.5, Weight: 1}, {Key: nan, Weight: 1}})
				return err
			}},
			{"delete", true, func() error { _, err := cl.Delete(ctx, "u", []float64{5, nan}); return err }},
			{"update", true, func() error {
				_, err := cl.Update(ctx, "w", []server.Item{{Key: 5, Weight: 2}, {Key: nan, Weight: 2}})
				return err
			}},
		}
		for _, tc := range cases {
			if tc.raw && !rawMutations {
				continue
			}
			if err := tc.do(); !errors.Is(err, server.ErrInvalidRange) {
				t.Errorf("%s: err = %v, want ErrInvalidRange", tc.name, err)
			}
		}
		if u, w := lens(); u != u0 || w != w0 {
			t.Fatalf("rejected requests changed the datasets: u %d -> %d, w %d -> %d", u0, u, w0, w)
		}

		// The legal neighbours of NaN.
		if out, err := cl.Sample(ctx, "u", -inf, inf, 8); err != nil || len(out) != 8 {
			t.Fatalf("sample(-Inf, +Inf): %v, %v", out, err)
		}
		zeros := []server.Item{{Key: negZero, Weight: 1}, {Key: 0, Weight: 1}}
		if n, err := cl.InsertItems(ctx, "u", zeros); err != nil || n != 2 {
			t.Fatalf("insert -0, +0: %d, %v", n, err)
		}
		if n, _, err := cl.RangeStats(ctx, "u", negZero, 0); err != nil || n != 3 {
			t.Fatalf("rangestats(-0, +0) = %d, %v, want the preloaded 0 plus both zeros", n, err)
		}
		if n, err := cl.Delete(ctx, "u", []float64{negZero, 0}); err != nil || n != 2 {
			t.Fatalf("delete -0, +0: %d, %v", n, err)
		}
	}

	t.Run("core", func(t *testing.T) {
		core := srv.NewCore[float64](srv.Config{})
		defer core.Close()
		keys := make([]float64, 1000)
		for i := range keys {
			keys[i] = float64(i)
		}
		u, err := irs.NewConcurrentFromSortedSeeded(keys, 4, 11)
		if err != nil {
			t.Fatal(err)
		}
		w := irs.NewWeightedConcurrent[float64](4, 11)
		for i := 0; i < 100; i++ {
			if err := w.Insert(float64(i), float64(i+1)); err != nil {
				t.Fatal(err)
			}
		}
		if err := errors.Join(core.Add("u", srv.NewUnweightedDataset(u)), core.Add("w", srv.NewWeightedDataset(w))); err != nil {
			t.Fatal(err)
		}
		check(t, coreConn{core}, true)
	})
	t.Run("binary-http", func(t *testing.T) {
		s := newBackend(t, server.Config{}, 1000, 11)
		defer s.Close()
		ts := httptest.NewServer(s)
		defer ts.Close()
		check(t, server.NewBinaryClient(ts.URL), true)
	})
	t.Run("irsnet", func(t *testing.T) {
		cl, _, stop := newTCPDaemon(t, server.Config{}, 1000, 11, irsnet.Options{})
		defer stop()
		check(t, cl, true)
	})
}

// TestTCPMalformedFrames speaks the raw protocol: malformed frames inside
// a well-formed envelope get a per-request bad_request error response
// (the connection survives), while a malformed envelope kills the
// connection — there is no boundary to resynchronize at.
func TestTCPMalformedFrames(t *testing.T) {
	s := newBackend(t, server.Config{}, 1000, 11)
	defer s.Close()
	addr, _, stopTCP := startTCP(t, s)
	defer stopTCP()

	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()

	send := func(id uint64, frame []byte) {
		t.Helper()
		msg := binary.LittleEndian.AppendUint32(nil, uint32(8+len(frame)))
		msg = binary.LittleEndian.AppendUint64(msg, id)
		msg = append(msg, frame...)
		if _, err := nc.Write(msg); err != nil {
			t.Fatal(err)
		}
	}
	readResp := func() (id uint64, status byte, payload []byte) {
		t.Helper()
		var hdr [12]byte
		if _, err := io.ReadFull(nc, hdr[:]); err != nil {
			t.Fatal(err)
		}
		n := binary.LittleEndian.Uint32(hdr[0:4])
		id = binary.LittleEndian.Uint64(hdr[4:12])
		body := make([]byte, n-8)
		if _, err := io.ReadFull(nc, body); err != nil {
			t.Fatal(err)
		}
		return id, body[0], body[1:]
	}

	for i, frame := range [][]byte{
		{0x07},               // unknown kind
		{0x01, 0x05, 'u'},    // truncated name
		{0x01, 0x01, 'u', 1}, // truncated payload
		append([]byte{0x02, 0x01, 'u'}, 0xff, 0xff, 0xff, 0xff, 1, 2, 3, 4), // hostile count
		append([]byte{0x01, 0x01, 'u'}, make([]byte, 21)...),                // trailing bytes
	} {
		id := uint64(100 + i)
		send(id, frame)
		gotID, status, payload := readResp()
		if gotID != id || status != 0x01 {
			t.Fatalf("frame %x: id=%d status=%d, want id=%d status=1", frame, gotID, status, id)
		}
		// The error payload decodes to bad_request/400 (checked through the
		// typed client elsewhere; here just pin the status field).
		if st := binary.LittleEndian.Uint16(payload[0:2]); st != 400 {
			t.Fatalf("frame %x: http status %d, want 400", frame, st)
		}
	}

	// A well-formed request still works on the same connection.
	good := []byte{0x01, 0x01, 'u'}
	good = binary.LittleEndian.AppendUint64(good, math.Float64bits(0))
	good = binary.LittleEndian.AppendUint64(good, math.Float64bits(999))
	good = binary.LittleEndian.AppendUint32(good, 3)
	send(7, good)
	if id, status, _ := readResp(); id != 7 || status != 0 {
		t.Fatalf("good frame after errors: id=%d status=%d", id, status)
	}

	// Envelope length below the minimum: the server drops the connection.
	if _, err := nc.Write(binary.LittleEndian.AppendUint32(nil, 3)); err != nil {
		t.Fatal(err)
	}
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	var one [1]byte
	if _, err := nc.Read(one[:]); err == nil {
		t.Fatal("connection survived a malformed envelope")
	}
}

// TestTCPSharedConnPipelining hammers one shared connection from many
// goroutines — samples and inserts interleaved, pipelined, completing out
// of order — and checks every response matches its request. Its real
// value is under -race (CI runs it): any unsynchronized state in the
// write path, pending map, or eventbox queue surfaces here.
func TestTCPSharedConnPipelining(t *testing.T) {
	cl, _, stop := newTCPDaemon(t, server.Config{
		CoalesceWindow: 200 * time.Microsecond,
		MaxBatch:       16,
	}, 2000, 11, irsnet.Options{Conns: 1})
	defer stop()
	ctx := context.Background()

	const goroutines, iters = 8, 60
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			name := "u"
			if g%2 == 1 {
				name = "w"
			}
			var buf []float64
			for i := 0; i < iters; i++ {
				// Each goroutine samples a distinct sub-range with a
				// distinct t, so a cross-matched response is visible.
				lo, hi := float64(g*10), float64(g*10+9)
				wantT := 1 + (g+i)%7
				var err error
				buf, err = cl.SampleAppend(ctx, name, buf[:0], lo, hi, wantT)
				if err != nil {
					if errors.Is(err, server.ErrOverloaded) || errors.Is(err, server.ErrEmptyRange) {
						continue
					}
					t.Errorf("goroutine %d: sample: %v", g, err)
					return
				}
				if len(buf) != wantT {
					t.Errorf("goroutine %d: got %d samples, want %d", g, len(buf), wantT)
					return
				}
				for _, k := range buf {
					if k < lo || k > hi {
						t.Errorf("goroutine %d: sample %g outside [%g, %g] — responses crossed", g, k, lo, hi)
						return
					}
				}
				if i%10 == 0 {
					if _, err := cl.InsertKeys(ctx, name, []float64{lo + 0.5}); err != nil &&
						!errors.Is(err, server.ErrOverloaded) {
						t.Errorf("goroutine %d: insert: %v", g, err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestTCPReconnect kills the server out from under the client — once
// gracefully while idle, once forcibly with requests possibly in flight —
// brings a new one up on the same address, and checks the client
// transparently re-dials. Requests that were in flight during the kill
// may fail with a connection error (the client must not silently retry
// them: the server may have executed the insert); fresh requests must
// succeed.
func TestTCPReconnect(t *testing.T) {
	s := newBackend(t, server.Config{}, 1000, 11)
	defer s.Close()

	l1, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l1.Addr().String()
	ts1 := irsnet.NewServer(s)
	done1 := make(chan error, 1)
	go func() { done1 <- ts1.Serve(l1) }()

	cl := irsnet.NewClient(addr, irsnet.Options{Conns: 2})
	defer cl.Close()
	ctx := context.Background()
	if _, err := cl.Sample(ctx, "u", 0, 999, 3); err != nil {
		t.Fatalf("first sample: %v", err)
	}

	// Graceful kill: drain, then the listener port is free again.
	sctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	if err := ts1.Shutdown(sctx); err != nil {
		t.Fatalf("shutdown 1: %v", err)
	}
	cancel()
	<-done1

	l2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("rebind %s: %v", addr, err)
	}
	ts2 := irsnet.NewServer(s)
	done2 := make(chan error, 1)
	go func() { done2 <- ts2.Serve(l2) }()

	// The client's pooled connections are dead; the next requests must
	// re-dial and succeed.
	for i := 0; i < 4; i++ {
		if _, err := cl.Sample(ctx, "u", 0, 999, 2); err != nil {
			t.Fatalf("sample after graceful restart (%d): %v", i, err)
		}
	}

	// Forcible kill mid-traffic: fire requests while the server is torn
	// down with an expired context (conns force-closed). In-flight
	// requests may fail with transport errors; that is the contract.
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				_, err := cl.Sample(ctx, "u", 0, 999, 1)
				if err != nil && !isTransportErr(err) {
					t.Errorf("mid-kill sample: unexpected error %v", err)
					return
				}
			}
		}()
	}
	expired, cancel2 := context.WithDeadline(ctx, time.Now().Add(-time.Second))
	err = ts2.Shutdown(expired)
	cancel2()
	if err != nil && !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("force shutdown: %v", err)
	}
	wg.Wait()
	<-done2

	l3, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("rebind %s: %v", addr, err)
	}
	ts3 := irsnet.NewServer(s)
	done3 := make(chan error, 1)
	go func() { done3 <- ts3.Serve(l3) }()
	defer func() {
		sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := ts3.Shutdown(sctx); err != nil {
			t.Errorf("shutdown 3: %v", err)
		}
		<-done3
	}()

	for i := 0; i < 4; i++ {
		if _, err := cl.Sample(ctx, "u", 0, 999, 2); err != nil {
			t.Fatalf("sample after forced restart (%d): %v", i, err)
		}
	}
}

// dropListener hands the server its connections unchanged, except that
// while armed the next one is accepted as a muteConn: the server reads and
// executes that connection's first request, and the connection dies in
// place of the answer — the one failure a client cannot tell apart from
// "the request never arrived".
type dropListener struct {
	net.Listener
	mu    sync.Mutex
	armed bool
}

func (l *dropListener) arm() { l.mu.Lock(); l.armed = true; l.mu.Unlock() }

func (l *dropListener) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.armed {
		l.armed = false
		return muteConn{nc}, nil
	}
	return nc, nil
}

type muteConn struct{ net.Conn }

func (c muteConn) Write([]byte) (int, error) {
	_ = c.Conn.Close()
	return 0, net.ErrClosed
}

// TestRetryAfterWriteOnlyWhenReadOnly pins, for every frame kind, whether
// the client may ask again once the request's bytes have left: a
// connection that swallows one request and closes costs a Sample, a
// SampleStatsAppend, a RangeStats and a Stats nothing but a re-dial, while
// an insert, a delete or an update — which the server did execute —
// surfaces a transport error and is applied exactly once, never re-sent.
func TestRetryAfterWriteOnlyWhenReadOnly(t *testing.T) {
	s := newBackend(t, server.Config{}, 1000, 11)
	defer s.Close()
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	l := &dropListener{Listener: inner}
	ts := irsnet.NewServer(s)
	served := make(chan error, 1)
	go func() { served <- ts.Serve(l) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := ts.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		<-served
	}()
	ctx := context.Background()

	// Each case runs on a fresh single-connection client, so its first
	// request is the one the armed listener swallows.
	dial := func() *irsnet.Client {
		l.arm()
		return irsnet.NewClient(inner.Addr().String(), irsnet.Options{Conns: 1})
	}
	for name, call := range map[string]func(*irsnet.Client) error{
		"sample": func(cl *irsnet.Client) error {
			out, err := cl.Sample(ctx, "u", 0, 999, 5)
			if err == nil && len(out) != 5 {
				err = errors.New("short sample")
			}
			return err
		},
		"samplestats": func(cl *irsnet.Client) error {
			out, n, mass, err := cl.SampleStatsAppend(ctx, "u", nil, 0, 999, 5)
			if err == nil && (len(out) != 5 || n != 1000 || mass != 1000) {
				err = fmt.Errorf("%d samples, (%d, %v)", len(out), n, mass)
			}
			return err
		},
		"rangestats": func(cl *irsnet.Client) error {
			n, _, err := cl.RangeStats(ctx, "u", 0, 999)
			if err == nil && n != 1000 {
				err = errors.New("wrong count")
			}
			return err
		},
		"stats": func(cl *irsnet.Client) error {
			st, err := cl.Stats(ctx)
			if err == nil && len(st.Datasets) != 2 {
				err = errors.New("wrong stats")
			}
			return err
		},
	} {
		cl := dial()
		if err := call(cl); err != nil {
			t.Errorf("%s over a connection that died after the write: %v", name, err)
		}
		cl.Close()
	}

	// Each mutation runs on a key whose state before and after tells how
	// many times it was applied: the server answers only after applying,
	// and the connection died on that answer.
	const key = 5000.5 // stored nowhere yet
	plain := irsnet.NewClient(inner.Addr().String(), irsnet.Options{Conns: 1})
	defer plain.Close()
	for _, m := range []struct {
		name   string
		ds     string
		setup  []server.Item
		mutate func(*irsnet.Client) (int, error)
		count  int     // the key's occurrences after one application
		mass   float64 // and their sampling mass
	}{
		{"insert", "u", nil, func(cl *irsnet.Client) (int, error) {
			return cl.InsertKeys(ctx, "u", []float64{key})
		}, 1, 1},
		{"delete", "u", []server.Item{{Key: key + 1, Weight: 1}, {Key: key + 1, Weight: 1}}, func(cl *irsnet.Client) (int, error) {
			return cl.Delete(ctx, "u", []float64{key + 1})
		}, 1, 1},
		{"update", "w", []server.Item{{Key: key, Weight: 1}}, func(cl *irsnet.Client) (int, error) {
			return cl.Update(ctx, "w", []server.Item{{Key: key, Weight: 7}})
		}, 1, 7},
	} {
		k := key
		if m.setup != nil {
			if _, err := plain.InsertItems(ctx, m.ds, m.setup); err != nil {
				t.Fatal(err)
			}
			k = m.setup[0].Key
		}
		cl := dial()
		if n, err := m.mutate(cl); !isTransportErr(err) {
			t.Fatalf("%s over a connection that died after the write: n = %d, err = %v, want a transport error", m.name, n, err)
		}
		if n, mass, err := cl.RangeStats(ctx, m.ds, k, k); err != nil || n != m.count || mass != m.mass {
			t.Fatalf("%s: key %v left at (%d, %v) (err %v), want (%d, %v): applied exactly once", m.name, k, n, mass, err, m.count, m.mass)
		}
		cl.Close()
	}
}

// isTransportErr reports whether err is a connection-level failure (as
// opposed to a served *server.APIError).
func isTransportErr(err error) bool {
	var api *server.APIError
	return err != nil && !errors.As(err, &api)
}

// TestTCPShutdownDrain: requests in flight when Shutdown begins are
// answered; the listener refuses new connections.
func TestTCPShutdownDrain(t *testing.T) {
	s := newBackend(t, server.Config{CoalesceWindow: time.Millisecond, MaxBatch: 64}, 1000, 11)
	defer s.Close()
	addr, ts, _ := startTCP(t, s)
	cl := irsnet.NewClient(addr, irsnet.Options{Conns: 1})
	defer cl.Close()
	ctx := context.Background()

	const n = 32
	errs := make(chan error, n)
	var started sync.WaitGroup
	for i := 0; i < n; i++ {
		started.Add(1)
		go func() {
			started.Done()
			_, err := cl.Sample(ctx, "u", 0, 999, 2)
			errs <- err
		}()
	}
	started.Wait()
	sctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	if err := ts.Shutdown(sctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	for i := 0; i < n; i++ {
		// A request that had not yet hit the wire when the reader stopped
		// fails as a transport error; one that was read must be answered.
		if err := <-errs; err != nil && !isTransportErr(err) {
			t.Fatalf("drain: %v", err)
		}
	}
	if _, err := cl.Sample(ctx, "u", 0, 999, 1); err == nil {
		t.Fatal("sample succeeded after shutdown")
	}
}

// TestTCPServerZeroAllocs pins the acceptance bar for the transport: a
// steady-state sample round trip — client encode, server read, decode,
// intern, async submit, coalesced flush, response encode, eventbox write,
// client decode — performs zero heap allocations per request, measured
// process-wide (AllocsPerRun counts mallocs on every goroutine, so the
// server's reader, flusher, and writer are all covered). The same holds for
// a sample-with-stats round trip (kind 0x07), whose stats live in the
// pooled request state.
func TestTCPServerZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates and drops pool Puts")
	}
	cl, _, stop := newTCPDaemon(t, server.Config{Flushers: 1}, 10_000, 7, irsnet.Options{Conns: 1})
	defer stop()
	ctx := context.Background()

	var dst []float64
	var err error
	for i := 0; i < 64; i++ {
		dst, err = cl.SampleAppend(ctx, "u", dst[:0], 0, 9_999, 16)
		if err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		dst, err = cl.SampleAppend(ctx, "u", dst[:0], 0, 9_999, 16)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(dst) != 16 {
		t.Fatalf("got %d samples", len(dst))
	}
	if allocs != 0 {
		t.Fatalf("steady-state TCP sample round trip allocates %.1f times per request, want 0", allocs)
	}

	var n int
	var mass float64
	for i := 0; i < 64; i++ {
		if dst, _, _, err = cl.SampleStatsAppend(ctx, "u", dst[:0], 0, 9_999, 16); err != nil {
			t.Fatal(err)
		}
	}
	allocs = testing.AllocsPerRun(200, func() {
		dst, n, mass, err = cl.SampleStatsAppend(ctx, "u", dst[:0], 0, 9_999, 16)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(dst) != 16 || n != 10_000 || mass != 10_000 {
		t.Fatalf("sample with stats: %d samples, (%d, %v)", len(dst), n, mass)
	}
	if allocs != 0 {
		t.Fatalf("steady-state TCP sample-with-stats round trip allocates %.1f times per request, want 0", allocs)
	}
}

// TestTCPContextCancellation: a cancelled context releases the caller
// promptly, and the connection stays usable for other requests (the
// orphaned response is dropped by ID).
func TestTCPContextCancellation(t *testing.T) {
	cl, _, stop := newTCPDaemon(t, server.Config{
		CoalesceWindow: 5 * time.Millisecond,
	}, 1000, 11, irsnet.Options{Conns: 1})
	defer stop()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := cl.Sample(ctx, "u", 0, 999, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled sample: %v", err)
	}
	// The connection must still serve.
	if out, err := cl.Sample(context.Background(), "u", 0, 999, 3); err != nil || len(out) != 3 {
		t.Fatalf("sample after cancellation: %v, %v", out, err)
	}
}
