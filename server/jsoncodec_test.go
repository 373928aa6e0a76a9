package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	irs "github.com/irsgo/irs"
	"github.com/irsgo/irs/internal/wire"
	"github.com/irsgo/irs/server"
)

// reusedBody is a request body that can be rewound without allocating.
type reusedBody struct{ bytes.Reader }

func (*reusedBody) Close() error { return nil }

// nullWriter is a ResponseWriter that keeps the status and counts the
// body, so a measured request pays for nothing the server does not do.
type nullWriter struct {
	h      http.Header
	status int
	n      int
}

func (w *nullWriter) Header() http.Header         { return w.h }
func (w *nullWriter) WriteHeader(status int)      { w.status = status }
func (w *nullWriter) Write(p []byte) (int, error) { w.n += len(p); return len(p), nil }

// TestJSONSampleAllocs pins what one JSON /sample costs in allocations,
// measured through ServeHTTP with a reused request and response writer:
// fewer than the 30 the per-op JSON handlers made, and the same at every
// t, because the samples, the frames and the response body all live in
// pooled buffers.
func TestJSONSampleAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates and drops pool Puts")
	}
	s := server.New(server.Config{Flushers: 1})
	defer s.Close()
	keys := make([]float64, 100_000)
	for i := range keys {
		keys[i] = float64(i)
	}
	u, err := irs.NewConcurrentFromSortedSeeded(keys, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddUnweighted("u", u); err != nil {
		t.Fatal(err)
	}
	allocs := map[int]float64{}
	for _, n := range []int{16, 256, 1024} {
		body := &reusedBody{}
		data := fmt.Appendf(nil, `{"dataset":"u","lo":0,"hi":99999,"t":%d}`, n)
		r := httptest.NewRequest(http.MethodPost, "/sample", body)
		r.Header.Set("Content-Type", "application/json")
		w := &nullWriter{h: http.Header{}}
		serve := func() {
			body.Reset(data)
			w.status, w.n = 0, 0
			s.ServeHTTP(w, r)
		}
		for range 64 {
			serve()
		}
		allocs[n] = testing.AllocsPerRun(500, serve)
		if w.status != http.StatusOK || w.n < 2*n {
			t.Fatalf("t=%d: status %d, %d body bytes", n, w.status, w.n)
		}
	}
	t.Logf("allocs per JSON /sample: %v", allocs)
	for n, a := range allocs {
		if a >= 30 {
			t.Errorf("t=%d: %.0f allocs per request, want fewer than 30", n, a)
		}
		if a != allocs[16] {
			t.Errorf("t=%d: %.0f allocs per request, t=16 makes %.0f; want equal", n, a, allocs[16])
		}
	}
}

// TestJSONBodiesMatchEncodingJSON pins the JSON response codec to
// encoding/json byte for byte: for every data op, the body must be exactly
// what json.NewEncoder(w).Encode of the typed response writes, trailing
// newline included, under Content-Type application/json. The keys and
// weights cover the float forms encoding/json special-cases (−0, the 1e-6
// and 1e21 exponent thresholds, the smallest subnormal, MaxFloat64, large
// integers), and the dataset names the characters it escapes (quote,
// backslash, HTML's <, > and &, U+2028) or passes through (non-ASCII,
// DEL), and the longest names a frame carries.
func TestJSONBodiesMatchEncodingJSON(t *testing.T) {
	floats := []float64{math.Copysign(0, -1), 1e-7, -1e-7, 1e-6, 0.1, 1e20, 1e21, 5e-324, math.MaxFloat64, 1 << 53, 123456789012345678, 1.5e300}
	slices.Sort(floats)
	names := []string{"u", `q"uote`, `back\slash`, "<a&b>", "héllo", "line sep", "del\x7f", "tab\tx", strings.Repeat("n", 254), strings.Repeat("<", 255)}
	s := server.New(server.Config{Flushers: 1})
	defer s.Close()
	for i, name := range names {
		var err error
		w := irs.NewWeightedConcurrent[float64](2, uint64(i))
		for j, k := range floats {
			// Weight j+1 keeps every key drawable; the special floats'
			// magnitudes also weigh keys far away from them.
			err = errors.Join(err, w.Insert(k, float64(j+1)), w.Insert(float64(-1000-j), math.Abs(k)))
		}
		if err = errors.Join(err, s.AddWeighted(name, w)); err != nil {
			t.Fatal(err)
		}
	}

	// check posts body to path, decodes the answer strictly into resp, and
	// compares it with encoding/json's encoding of resp. The callers then
	// check resp's values, which that comparison alone would not catch.
	check := func(path, body string, resp any) {
		t.Helper()
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		got := rec.Body.Bytes()
		if rec.Code != http.StatusOK || rec.Header().Get("Content-Type") != "application/json" {
			t.Fatalf("%s %s: %d %q %s", path, body, rec.Code, rec.Header().Get("Content-Type"), got)
		}
		dec := json.NewDecoder(bytes.NewReader(got))
		dec.DisallowUnknownFields()
		if err := dec.Decode(resp); err != nil {
			t.Fatalf("%s %s: %s does not decode: %v", path, body, got, err)
		}
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(resp); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want.Bytes()) || !bytes.HasSuffix(got, []byte("\n")) {
			t.Fatalf("%s %s:\n got  %q\n want %q", path, body, got, want.Bytes())
		}
	}
	for _, name := range names {
		q, _ := json.Marshal(name)
		var sr server.SampleResponse
		check("/sample", fmt.Sprintf(`{"dataset":%s,"lo":-1,"hi":1.7976931348623157e308,"t":1000}`, q), &sr)
		negZero := slices.ContainsFunc(sr.Samples, func(v float64) bool { return v == 0 && math.Signbit(v) })
		if seen := slices.Compact(slices.Sorted(slices.Values(sr.Samples))); !slices.Equal(seen, floats) || !negZero || sr.Dataset != name {
			t.Fatalf("%q: sampled %v of %v (−0 kept its sign: %v)", sr.Dataset, seen, floats, negZero)
		}
		for j, k := range floats {
			var rr server.RangeStatsResponse
			check("/rangestats", fmt.Sprintf(`{"dataset":%s,"lo":%d,"hi":%d}`, q, -1000-j, -1000-j), &rr)
			if rr.Count != 1 || rr.Mass != math.Abs(k) || rr.Dataset != name {
				t.Fatalf("rangestats of key %d: %+v, want mass %v", -1000-j, rr, math.Abs(k))
			}
		}
		var ir server.InsertResponse
		check("/insert", fmt.Sprintf(`{"dataset":%s,"keys":[5e-324],"items":[{"key":2,"weight":1e21}]}`, q), &ir)
		var ur server.UpdateResponse
		check("/update", fmt.Sprintf(`{"dataset":%s,"items":[{"key":2,"weight":1e-7}]}`, q), &ur)
		var dr server.DeleteResponse
		check("/delete", fmt.Sprintf(`{"dataset":%s,"keys":[2,5e-324,7]}`, q), &dr)
		if ir.Inserted != 2 || ur.Updated != 1 || dr.Removed != 2 {
			t.Fatalf("%q: inserted %d, updated %d, removed %d", name, ir.Inserted, ur.Updated, dr.Removed)
		}
	}
	// An omitted name answers with the sole dataset's.
	solo := server.New(server.Config{})
	defer solo.Close()
	w := irs.NewWeightedConcurrent[float64](1, 1)
	if err := errors.Join(w.Insert(3, 1), solo.AddWeighted("<solo>", w)); err != nil {
		t.Fatal(err)
	}
	s = solo
	var sr server.SampleResponse
	check("/sample", `{"lo":0,"hi":9,"t":2}`, &sr)
	if sr.Dataset != "<solo>" {
		t.Fatalf("omitted name echoed as %q", sr.Dataset)
	}
}

// TestJSONDataOpsTimed: each of the five JSON data ops adds exactly one
// observation to the JSON request-latency histogram, and the binary frames
// add theirs to the binary one.
func TestJSONDataOpsTimed(t *testing.T) {
	s, cl, _, stop := newTestDaemon(t, server.Config{}, 1000)
	defer stop()
	ctx := context.Background()
	count := func(encoding string) float64 {
		t.Helper()
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
		return parseExposition(t, rec.Body.String())[`irsd_http_request_duration_seconds_count{encoding="`+encoding+`"}`]
	}
	for _, op := range []struct {
		name string
		do   func() error
	}{
		{"sample", func() error { _, err := cl.Sample(ctx, "u", 0, 9, 2); return err }},
		{"insert", func() error { _, err := cl.InsertKeys(ctx, "u", []float64{1}); return err }},
		{"delete", func() error { _, err := cl.Delete(ctx, "u", []float64{1}); return err }},
		{"update", func() error { _, err := cl.Update(ctx, "w", []server.Item{{Key: 1, Weight: 2}}); return err }},
		{"rangestats", func() error { _, _, err := cl.RangeStats(ctx, "u", 0, 9); return err }},
	} {
		before, binary := count("json"), count("binary")
		if err := op.do(); err != nil {
			t.Fatalf("%s: %v", op.name, err)
		}
		if after := count("json"); after != before+1 || count("binary") != binary {
			t.Errorf("%s: JSON histogram count %v -> %v, binary %v -> %v; want +1 and unchanged", op.name, before, after, binary, count("binary"))
		}
	}
	before := count("binary")
	if _, _, _, err := cl.SampleStatsAppend(ctx, "u", nil, 0, 9, 2); err != nil {
		t.Fatal(err)
	}
	if after := count("binary"); after != before+1 {
		t.Errorf("sample with stats: binary histogram count %v -> %v, want +1", before, after)
	}
}

// FuzzServeJSON sends arbitrary bodies to every JSON data endpoint through
// ServeHTTP. No body panics; a 2xx body decodes strictly into the row's
// response type; any other answer is the error envelope with a code of
// the wire vocabulary; and a body strict encoding/json rejects answers
// bad_request. The seeds are TestHTTPErrorPaths' bodies plus one
// well-formed body per endpoint.
func FuzzServeJSON(f *testing.F) {
	for _, body := range []string{
		`{"lo":`, `not json`, `{"lo":1,"bogus":2}`, ``,
		`{"dataset":"u","lo":0,"hi":99,"t":3}`,
		`{"dataset":"w","keys":[1,2],"items":[{"key":3,"weight":4}]}`,
		`{"dataset":"u","keys":[1,5000]}`,
		`{"dataset":"w","items":[{"key":1,"weight":9}]}`,
		`{"lo":0,"hi":1e300,"t":2000000}`,
		`{"dataset":"u","lo":9,"hi":1,"t":-3000000000}`,
		`{"dataset":"u","stats":true}`,
		`{"dataset":"` + strings.Repeat("n", 255) + `","lo":0,"hi":1,"t":1}`,
	} {
		f.Add([]byte(body))
	}
	s := server.New(server.Config{})
	defer s.Close()
	keys := make([]float64, 100)
	for i := range keys {
		keys[i] = float64(i)
	}
	u, err := irs.NewConcurrentFromSortedSeeded(keys, 2, 1)
	if err != nil {
		f.Fatal(err)
	}
	w := irs.NewWeightedConcurrent[float64](2, 1)
	if err := errors.Join(s.AddUnweighted("u", u), s.AddWeighted("w", w)); err != nil {
		f.Fatal(err)
	}
	codes := map[string]bool{"bad_request": true}
	for code := range wire.CodeToErr {
		codes[code] = true
	}
	ops := []struct {
		path      string
		req, resp func() any
	}{
		{"/sample", func() any { return new(server.SampleRequest) }, func() any { return new(server.SampleResponse) }},
		{"/insert", func() any { return new(server.InsertRequest) }, func() any { return new(server.InsertResponse) }},
		{"/delete", func() any { return new(server.DeleteRequest) }, func() any { return new(server.DeleteResponse) }},
		{"/update", func() any { return new(server.UpdateRequest) }, func() any { return new(server.UpdateResponse) }},
		{"/rangestats", func() any { return new(server.RangeStatsRequest) }, func() any { return new(server.RangeStatsResponse) }},
	}
	strict := func(b []byte, v any) error {
		dec := json.NewDecoder(bytes.NewReader(b))
		dec.DisallowUnknownFields()
		return dec.Decode(v)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, op := range ops {
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, op.path, bytes.NewReader(body)))
			got := rec.Body.Bytes()
			if rec.Code/100 == 2 {
				if err := strict(got, op.resp()); err != nil {
					t.Fatalf("%s %q: 2xx body %q does not decode: %v", op.path, body, got, err)
				}
				continue
			}
			var env server.ErrorResponse
			if err := strict(got, &env); err != nil || !codes[env.Error.Code] {
				t.Fatalf("%s %q: %d %q is not an error envelope of the wire vocabulary (%v)", op.path, body, rec.Code, got, err)
			}
			if strict(body, op.req()) != nil && (env.Error.Code != "bad_request" || rec.Code != http.StatusBadRequest) {
				t.Fatalf("%s %q: encoding/json rejects the body, answered %d %s", op.path, body, rec.Code, env.Error.Code)
			}
		}
	})
}
