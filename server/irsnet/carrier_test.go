package irsnet_test

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http/httptest"
	"slices"
	"testing"

	"github.com/irsgo/irs/client"
	"github.com/irsgo/irs/internal/wire"
	"github.com/irsgo/irs/server"
	"github.com/irsgo/irs/server/irsnet"
)

// TestCarrierEquivalence runs every client.Conn method over both carriers
// of the frame protocol — binary-HTTP and irsnet — against identically
// seeded daemons, in one fixed sequence: the sample rows of
// TestThreeEncodingsIdenticalSamples, then one row per remaining method,
// then the error rows. Every row must answer identically on both carriers,
// errors by wire code and status; the rows JSON can express run over JSON
// too and must agree with it, float edge cases and the sign of zero
// included.
func TestCarrierEquivalence(t *testing.T) {
	ctx := context.Background()
	type row struct {
		name string
		json bool  // expressible over JSON (which has no NaN)
		want error // the error rows' sentinel
		do   func(cl client.Conn) (any, error)
	}
	rows := []row{
		{"sample append", true, nil, func(cl client.Conn) (any, error) {
			return cl.SampleAppend(ctx, "u", []float64{-1}, 0, 999, 5)
		}},
		{"sample with stats", true, nil, func(cl client.Conn) (any, error) {
			out, n, mass, err := cl.SampleStatsAppend(ctx, "w", nil, 10, 60, 9)
			return fmt.Sprint(out, n, mass), err
		}},
		{"sample with stats, no mass", true, nil, func(cl client.Conn) (any, error) {
			out, n, mass, err := cl.SampleStatsAppend(ctx, "u", nil, 5000, 6000, 9)
			return fmt.Sprint(out, n, mass), err
		}},
		{"rangestats", true, nil, func(cl client.Conn) (any, error) {
			n, mass, err := cl.RangeStats(ctx, "w", 0, 3e4)
			return fmt.Sprint(n, mass), err
		}},
		{"delete", true, nil, func(cl client.Conn) (any, error) { return cl.Delete(ctx, "u", []float64{1, 2, 1e4, 5e4}) }},
		{"update", true, nil, func(cl client.Conn) (any, error) {
			return cl.Update(ctx, "w", []server.Item{{Key: 5, Weight: 40}, {Key: 5e4, Weight: 1}})
		}},
		{"insert keys", true, nil, func(cl client.Conn) (any, error) {
			return cl.InsertKeys(ctx, "u", []float64{5e-324, math.Copysign(0, -1), 1e-7})
		}},
		{"insert items", true, nil, func(cl client.Conn) (any, error) {
			return cl.InsertItems(ctx, "w", []server.Item{{Key: 1e21, Weight: 1e-7}, {Key: -1e-7, Weight: 2}})
		}},
		{"sample of float edge cases", true, nil, func(cl client.Conn) (any, error) {
			return cl.Sample(ctx, "u", -1, 1e-6, 9)
		}},
		{"sample with stats of float edge cases", true, nil, func(cl client.Conn) (any, error) {
			out, n, mass, err := cl.SampleStatsAppend(ctx, "w", nil, -1, 1e22, 6)
			return fmt.Sprint(out, n, mass), err
		}},
		{"stats", true, nil, func(cl client.Conn) (any, error) {
			st, err := cl.Stats(ctx)
			var out []string
			for _, d := range st.Datasets {
				out = append(out, fmt.Sprint(d.Name, d.Kind, d.Len))
			}
			return out, err
		}},
		{"sample after mutations", true, nil, func(cl client.Conn) (any, error) { return cl.Sample(ctx, "w", 0, 99, 12) }},
		{"unknown dataset", true, server.ErrUnknownDataset, func(cl client.Conn) (any, error) {
			return cl.Sample(ctx, "zzz", 0, 10, 1)
		}},
		{"NaN key", false, server.ErrInvalidRange, func(cl client.Conn) (any, error) {
			return cl.Delete(ctx, "u", []float64{3, math.NaN()})
		}},
		{"inverted range", true, server.ErrInvalidRange, func(cl client.Conn) (any, error) {
			n, mass, err := cl.RangeStats(ctx, "u", 10, 0)
			return fmt.Sprint(n, mass), err
		}},
		{"not weighted", true, server.ErrNotWeighted, func(cl client.Conn) (any, error) {
			return cl.Update(ctx, "u", []server.Item{{Key: 3, Weight: 2}})
		}},
		{"t below MinInt32", true, server.ErrInvalidCount, func(cl client.Conn) (any, error) {
			return cl.Sample(ctx, "u", 0, 10, -(1<<32)+5)
		}},
		{"t above the response bound", true, server.ErrInvalidCount, func(cl client.Conn) (any, error) {
			return cl.Sample(ctx, "u", 0, 10, wire.MaxSampleCount+1)
		}},
		{"ambiguous dataset", true, server.ErrAmbiguousDataset, func(cl client.Conn) (any, error) {
			n, mass, err := cl.RangeStats(ctx, "", 0, 10)
			return fmt.Sprint(n, mass), err
		}},
	}

	// run answers the rows on a fresh daemon of the shared seed; an error
	// row answers its wire code and status.
	run := func(encoding string) []string {
		s := newBackend(t, server.Config{Flushers: 1}, 1000, 99)
		defer s.Close()
		var cl client.Conn
		switch encoding {
		case "irsnet":
			addr, _, stopTCP := startTCP(t, s)
			defer stopTCP()
			cl = irsnet.NewClient(addr, irsnet.Options{Conns: 1})
		default:
			ts := httptest.NewServer(s)
			defer ts.Close()
			cl = server.NewClient(ts.URL)
			if encoding == "binary-http" {
				cl = server.NewBinaryClient(ts.URL)
			}
		}
		defer cl.Close()
		out := []string{fmt.Sprint(driveSamples(t, ctx, encoding, cl))}
		for _, r := range rows {
			if encoding == "json" && !r.json {
				continue
			}
			v, err := r.do(cl)
			if (err != nil) != (r.want != nil) || (r.want != nil && !errors.Is(err, r.want)) {
				t.Fatalf("%s: %s: %v, %v; want error %v", encoding, r.name, v, err, r.want)
			}
			if err != nil {
				code, status := wire.ErrCode(err)
				var api *server.APIError
				if errors.As(err, &api) {
					code, status = api.Code, api.Status
				}
				v = fmt.Sprint(code, status)
			}
			out = append(out, fmt.Sprintf("%s: %v", r.name, v))
		}
		return out
	}

	bin, tcp := run("binary-http"), run("irsnet")
	if !slices.Equal(bin, tcp) {
		t.Fatalf("carriers disagree:\nbinary-http %q\nirsnet      %q", bin, tcp)
	}
	jsonOut := run("json")
	var expressible []string
	for i, r := range bin {
		if i == 0 || rows[i-1].json {
			expressible = append(expressible, r)
		}
	}
	if !slices.Equal(expressible, jsonOut) {
		t.Fatalf("frames and JSON disagree:\nframes %q\njson   %q", expressible, jsonOut)
	}
}

// TestClientAllocs pins what a steady-state SampleAppend allocates on the
// client side, per carrier, counted process-wide by AllocsPerRun. The
// irsnet carrier runs against an in-process daemon whose own path is
// allocation-free (TestTCPServerZeroAllocs), so the whole count is the
// client's. The binary-HTTP carrier runs against cannedHTTP, an in-process
// responder that answers every request with one precomputed sample frame
// without allocating, so net/http's server side does not swamp the count.
// Before the frame client, the same measurement read 0 (irsnet) and 57
// (binary-HTTP, server.Client with the Binary knob) on linux/amd64, go1.24.
func TestClientAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates and drops pool Puts")
	}
	ctx := context.Background()
	measure := func(cl *server.FrameClient) float64 {
		var dst []float64
		var err error
		for i := 0; i < 64; i++ {
			if dst, err = cl.SampleAppend(ctx, "u", dst[:0], 0, 9_999, 16); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(200, func() {
			dst, err = cl.SampleAppend(ctx, "u", dst[:0], 0, 9_999, 16)
		})
		if err != nil || len(dst) != 16 {
			t.Fatalf("%d samples, %v", len(dst), err)
		}
		return allocs
	}

	tcp, _, stop := newTCPDaemon(t, server.Config{Flushers: 1}, 10_000, 7, irsnet.Options{Conns: 1})
	defer stop()
	if allocs := measure(tcp.FrameClient); allocs > 0 {
		t.Errorf("irsnet SampleAppend allocates %.1f times per request, want 0", allocs)
	}

	url, stopHTTP := cannedHTTP(t, wire.EncodeSampleResponse(nil, make([]float64, 16)))
	defer stopHTTP()
	cl := server.NewBinaryClient(url)
	defer cl.Close()
	if allocs := measure(cl); allocs > 57 {
		t.Errorf("binary-HTTP SampleAppend allocates %.1f times per request, want at most 57", allocs)
	}
}

// cannedHTTP serves HTTP/1.1 keep-alive connections that answer every
// request with frame, reading requests without allocating.
func cannedHTTP(t *testing.T, frame []byte) (string, func()) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	resp := fmt.Appendf(nil, "HTTP/1.1 200 OK\r\nContent-Type: %s\r\nContent-Length: %d\r\n\r\n%s", server.ContentTypeBinary, len(frame), frame)
	serve := func(nc net.Conn) {
		defer nc.Close()
		br := bufio.NewReader(nc)
		for {
			body := 0
			for {
				line, err := br.ReadSlice('\n')
				if err != nil {
					return
				}
				if len(line) <= 2 {
					break
				}
				if n, ok := contentLength(line); ok {
					body = n
				}
			}
			if _, err := br.Discard(body); err != nil {
				return
			}
			if _, err := nc.Write(resp); err != nil {
				return
			}
		}
	}
	go func() {
		for {
			nc, err := l.Accept()
			if err != nil {
				return
			}
			go serve(nc)
		}
	}()
	return "http://" + l.Addr().String(), func() { _ = l.Close() }
}

// contentLength parses a "Content-Length: n\r\n" header line.
func contentLength(line []byte) (int, bool) {
	const key = "content-length:"
	if len(line) < len(key) {
		return 0, false
	}
	for i := range key {
		if c := line[i] | 0x20; c != key[i] {
			return 0, false
		}
	}
	n := 0
	for _, c := range line[len(key):] {
		if c >= '0' && c <= '9' {
			n = 10*n + int(c-'0')
		}
	}
	return n, true
}
