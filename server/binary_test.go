package server_test

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	irs "github.com/irsgo/irs"
	"github.com/irsgo/irs/server"
)

// newSeededDaemon builds a daemon whose sample streams are fully
// deterministic for a fixed request sequence: one flusher (so every batch
// lands on the same RNG stream) and no linger window.
func newSeededDaemon(t *testing.T, seed uint64) (*server.Client, func()) {
	t.Helper()
	s := server.New(server.Config{Flushers: 1})
	keys := make([]float64, 1000)
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
	ts := httptest.NewServer(s)
	return server.NewClient(ts.URL), func() { ts.Close(); s.Close() }
}

// TestBinaryJSONIdenticalSamples pins the encodings to each other: two
// daemons with the same seed, driven through the identical sequential
// request sequence — one over JSON, one over the binary frames — must
// return bit-identical sample streams. float64 survives Go's JSON
// round trip exactly, so any divergence is an encoding bug.
func TestBinaryJSONIdenticalSamples(t *testing.T) {
	ctx := context.Background()
	run := func(binary bool) [][]float64 {
		cl, stop := newSeededDaemon(t, 99)
		defer stop()
		cl.Binary = binary
		var out [][]float64
		for _, ds := range []string{"u", "w"} {
			if n, err := cl.InsertKeys(ctx, ds, []float64{1e4, 1e4 + 1}); err != nil || n != 2 {
				t.Fatalf("insert keys (binary=%v): %d, %v", binary, n, err)
			}
			if n, err := cl.InsertItems(ctx, ds, []server.Item{{Key: 2e4, Weight: 3.5}}); err != nil || n != 1 {
				t.Fatalf("insert items (binary=%v): %d, %v", binary, n, err)
			}
			for i := 0; i < 20; i++ {
				samples, err := cl.Sample(ctx, ds, 0, 3e4, 7+i)
				if err != nil {
					t.Fatalf("sample (binary=%v): %v", binary, err)
				}
				out = append(out, samples)
			}
		}
		return out
	}
	jsonOut := run(false)
	binOut := run(true)
	if len(jsonOut) != len(binOut) {
		t.Fatalf("response counts differ: %d vs %d", len(jsonOut), len(binOut))
	}
	for i := range jsonOut {
		if len(jsonOut[i]) != len(binOut[i]) {
			t.Fatalf("request %d: %d samples over JSON, %d over binary", i, len(jsonOut[i]), len(binOut[i]))
		}
		for j := range jsonOut[i] {
			if jsonOut[i][j] != binOut[i][j] {
				t.Fatalf("request %d sample %d: %v over JSON, %v over binary",
					i, j, jsonOut[i][j], binOut[i][j])
			}
		}
	}
}

// TestBinaryErrorPaths mirrors the JSON error-path suite over the binary
// encoding: every typed error keeps its JSON envelope, wire code, and
// HTTP status, so errors.Is works identically over both encodings.
func TestBinaryErrorPaths(t *testing.T) {
	_, cl, base, stop := newTestDaemon(t, server.Config{}, 1000)
	defer stop()
	cl.Binary = true
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

	// Malformed frames answer 400 bad_request, exactly like malformed JSON.
	for _, frame := range [][]byte{
		{},                   // empty body
		{0x07},               // unknown kind
		{0x01, 0x05, 'u'},    // truncated name
		{0x01, 0x01, 'u', 1}, // truncated payload
		append([]byte{0x02, 0x01, 'u'}, bytes.Repeat([]byte{0xff}, 8)...), // hostile count
		append([]byte{0x01, 0x01, 'u'}, make([]byte, 21)...),              // trailing bytes
	} {
		resp, err := http.Post(base+"/sample", server.ContentTypeBinary, bytes.NewReader(frame))
		if err != nil {
			t.Fatal(err)
		}
		var body [256]byte
		n, _ := resp.Body.Read(body[:])
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body[:n]), `"bad_request"`) {
			t.Errorf("frame %x: status=%d body=%s", frame, resp.StatusCode, body[:n])
		}
	}

	// Wrong method on the binary content type.
	req, _ := http.NewRequest(http.MethodGet, base+"/sample", nil)
	req.Header.Set("Content-Type", server.ContentTypeBinary)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET binary /sample: %d", resp.StatusCode)
	}
}

// TestBinaryRoundTrip drives the full insert/sample/delete cycle over the
// binary client against both dataset kinds (delete falls back to JSON;
// the two encodings interleave freely on one connection).
func TestBinaryRoundTrip(t *testing.T) {
	_, cl, _, stop := newTestDaemon(t, server.Config{}, 1000)
	defer stop()
	cl.Binary = true
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
	if n, err := cl.Delete(ctx, "u", []float64{5000, 5001, 5002}); err != nil || n != 3 {
		t.Fatalf("Delete: %d, %v", n, err)
	}
	if _, err := cl.Sample(ctx, "u", 5000, 5002, 1); !errors.Is(err, server.ErrEmptyRange) {
		t.Fatalf("after delete: err = %v", err)
	}
	// Weighted inserts over binary carry their weights.
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
}

// TestSampleStatsOverBinaryHTTP: a sample-with-stats request travels as a
// binary frame (kind 0x07) even from a JSON client, answers the same
// samples a plain sample does under one seed, and reports the range's
// (count, mass) as RangeStats does. A range without sampling mass — no
// keys, or only zero-weight ones — answers no samples and its stats where
// a plain sample answers ErrEmptyRange; request errors stay errors.
func TestSampleStatsOverBinaryHTTP(t *testing.T) {
	ctx := context.Background()
	withStats, stopA := newSeededDaemon(t, 5)
	defer stopA()
	plain, stopB := newSeededDaemon(t, 5)
	defer stopB()
	plain.Binary = true
	for i, q := range []struct {
		ds     string
		lo, hi float64
		t      int
	}{
		{"u", 0, 999, 16}, {"w", 10, 60, 5}, {"u", 300, 300, 2}, {"w", 0, 99, 300},
	} {
		got, n, mass, err := withStats.SampleStatsAppend(ctx, q.ds, nil, q.lo, q.hi, q.t)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		want, err := plain.SampleAppend(ctx, q.ds, nil, q.lo, q.hi, q.t)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("request %d: samples with stats %v, plain %v", i, got, want)
		}
		wantN, wantMass, err := plain.RangeStats(ctx, q.ds, q.lo, q.hi)
		if err != nil || n != wantN || mass != wantMass {
			t.Fatalf("request %d: stats (%d, %v), RangeStats (%d, %v, %v)", i, n, mass, wantN, wantMass, err)
		}
	}

	if _, err := withStats.InsertItems(ctx, "w", []server.Item{{Key: 500, Weight: 0}}); err != nil {
		t.Fatal(err)
	}
	for _, q := range []struct {
		ds      string
		lo, hi  float64
		wantN   int
		comment string
	}{
		{"u", 2000, 3000, 0, "no keys"},
		{"w", 400, 600, 1, "one zero-weight key"},
	} {
		dst := []float64{-1}
		got, n, mass, err := withStats.SampleStatsAppend(ctx, q.ds, dst, q.lo, q.hi, 4)
		if err != nil || len(got) != 1 || n != q.wantN || mass != 0 {
			t.Errorf("%s: %v, (%d, %v), %v; want only the prefix, (%d, 0), nil", q.comment, got, n, mass, err, q.wantN)
		}
		if _, err := withStats.Sample(ctx, q.ds, q.lo, q.hi, 4); !errors.Is(err, server.ErrEmptyRange) {
			t.Errorf("%s: plain sample answered %v, want ErrEmptyRange", q.comment, err)
		}
	}
	if _, _, _, err := withStats.SampleStatsAppend(ctx, "u", nil, 9, 1, 4); !errors.Is(err, server.ErrInvalidRange) {
		t.Errorf("inverted range: %v", err)
	}
	if _, _, _, err := withStats.SampleStatsAppend(ctx, "nope", nil, 0, 1, 4); !errors.Is(err, server.ErrUnknownDataset) {
		t.Errorf("unknown dataset: %v", err)
	}
}
