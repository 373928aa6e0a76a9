package wire

import (
	"errors"
	"math"
	"testing"

	srv "github.com/irsgo/irs/internal/server"
)

// TestBinaryCodecZeroAllocs pins the pooled encode/decode paths: framing a
// sample request, decoding it, framing the response, and decoding that
// back must all run allocation-free once the caller's buffers are warm —
// the property that keeps the binary wire path from re-introducing the
// per-request garbage the serving core eliminated.
func TestBinaryCodecZeroAllocs(t *testing.T) {
	samples := make([]float64, 256)
	for i := range samples {
		samples[i] = float64(i) * 1.5
	}
	frame := make([]byte, 0, 4096)
	dst := make([]float64, 0, 256)
	var err error

	allocs := testing.AllocsPerRun(200, func() {
		frame, err = EncodeSampleRequest(frame[:0], SampleReq{Dataset: "events", Lo: 1, Hi: 2, T: 256})
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("EncodeSampleRequest allocates %.1f/op, want 0", allocs)
	}

	allocs = testing.AllocsPerRun(200, func() {
		frame = EncodeSampleResponse(frame[:0], samples)
	})
	if allocs != 0 {
		t.Errorf("EncodeSampleResponse allocates %.1f/op, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(200, func() {
		dst, err = DecodeSampleResponse(frame, dst[:0])
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("DecodeSampleResponse allocates %.1f/op, want 0", allocs)
	}
	if len(dst) != len(samples) {
		t.Fatalf("decoded %d samples, want %d", len(dst), len(samples))
	}
	for i := range dst {
		if dst[i] != samples[i] {
			t.Fatalf("sample %d: %v != %v", i, dst[i], samples[i])
		}
	}

	// The request decode keeps the name as a subslice of the frame and must
	// be fully allocation-free — it is every carrier's per-request path.
	req := SampleReq{Dataset: "events", Lo: -3, Hi: 9, T: 17}
	frame, err = EncodeSampleRequest(frame[:0], req)
	if err != nil {
		t.Fatal(err)
	}
	var raw RawSampleReq
	allocs = testing.AllocsPerRun(200, func() {
		raw, err = DecodeSampleRequestRaw(frame)
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("DecodeSampleRequestRaw allocates %.1f/op, want 0", allocs)
	}
	if string(raw.Name) != req.Dataset || raw.Lo != req.Lo || raw.Hi != req.Hi || raw.T != req.T || raw.Stats {
		t.Fatalf("raw round trip: %+v (want %+v)", raw, req)
	}

	// Kind 0x07 is the same request with a stats-prefixed response: both
	// directions stay allocation-free, and the stats survive the trip.
	req.Stats = true
	allocs = testing.AllocsPerRun(200, func() {
		frame, err = EncodeSampleRequest(frame[:0], req)
		if err != nil {
			t.Fatal(err)
		}
		raw, err = DecodeSampleRequestRaw(frame)
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("sample-with-stats request encode+decode allocates %.1f/op, want 0", allocs)
	}
	if frame[0] != FrameSampleStats || !raw.Stats || string(raw.Name) != req.Dataset || raw.T != req.T {
		t.Fatalf("sample-with-stats request round trip: kind 0x%02x, %+v (want %+v)", frame[0], raw, req)
	}
	var count int
	var mass float64
	allocs = testing.AllocsPerRun(200, func() {
		frame = EncodeSampleStatsResponse(frame[:0], 1234, 56.5, samples)
		dst, count, mass, err = DecodeSampleStatsResponse(frame, dst[:0])
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("sample-with-stats response encode+decode allocates %.1f/op, want 0", allocs)
	}
	if count != 1234 || mass != 56.5 || len(dst) != len(samples) || dst[len(dst)-1] != samples[len(samples)-1] {
		t.Fatalf("sample-with-stats response round trip: (%d, %v) and %d samples", count, mass, len(dst))
	}
	// A truncated frame leaves dst as it was handed over.
	if got, _, _, err := DecodeSampleStatsResponse(frame[:len(frame)-1], dst[:1]); err == nil || len(got) != 1 {
		t.Fatalf("truncated sample-with-stats response: %d samples, err %v", len(got), err)
	}
}

// TestBinaryInsertCodecRoundTrip covers the insert frames, including the
// negative-T-style edge of empty key/item sections.
func TestBinaryInsertCodecRoundTrip(t *testing.T) {
	for _, req := range []InsertReq{
		{Dataset: "d", Keys: []float64{1, 2, 3}},
		{Dataset: "", Items: []Item{{Key: 4, Weight: 0.5}, {Key: 5, Weight: 2}}},
		{Dataset: "both", Keys: []float64{9}, Items: []Item{{Key: 10, Weight: 7}}},
		{Dataset: "empty"},
	} {
		frame, err := EncodeInsertRequest(nil, req)
		if err != nil {
			t.Fatal(err)
		}
		name, got, err := DecodeInsertRequestItems(frame, nil)
		if err != nil {
			t.Fatalf("%+v: %v", req, err)
		}
		if string(name) != req.Dataset || len(got) != len(req.Keys)+len(req.Items) {
			t.Fatalf("round trip: %+v -> %q %+v", req, name, got)
		}
		for i, k := range req.Keys {
			if got[i] != (Item{Key: k, Weight: 1}) {
				t.Fatalf("key %d: %+v != %v", i, got[i], k)
			}
		}
		for i, it := range req.Items {
			if got[len(req.Keys)+i] != it {
				t.Fatalf("item %d: %+v != %+v", i, got[len(req.Keys)+i], it)
			}
		}
	}
}

// TestDecodeInsertRequestItems pins the merged decode the handlers use: the
// unweighted keys arrive ahead of the weighted items, in frame order, as
// unit-weight items.
func TestDecodeInsertRequestItems(t *testing.T) {
	frame, err := EncodeInsertRequest(nil, InsertReq{
		Dataset: "w", Keys: []float64{1, 2}, Items: []Item{{Key: 3, Weight: 4}},
	})
	if err != nil {
		t.Fatal(err)
	}
	name, all, err := DecodeInsertRequestItems(frame, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []Item{{Key: 1, Weight: 1}, {Key: 2, Weight: 1}, {Key: 3, Weight: 4}}
	if string(name) != "w" || len(all) != len(want) {
		t.Fatalf("merged decode: name=%q items=%+v", name, all)
	}
	for i := range want {
		if all[i] != want[i] {
			t.Fatalf("merged item %d: %+v != %+v", i, all[i], want[i])
		}
	}
}

// TestErrorPayloadRoundTrip covers the TCP error payload codec.
func TestErrorPayloadRoundTrip(t *testing.T) {
	b := EncodeError(nil, "empty_range", 422, "no keys in [3, 4]")
	code, status, msg, err := DecodeError(b)
	if err != nil {
		t.Fatal(err)
	}
	if code != "empty_range" || status != 422 || msg != "no keys in [3, 4]" {
		t.Fatalf("round trip: %q %d %q", code, status, msg)
	}
	if _, _, _, err := DecodeError(b[:len(b)-1]); err == nil {
		t.Fatal("truncated error payload decoded without error")
	}
}

// TestSampleCountOutsideInt32Rejected: the count travels as an int32, so a
// count outside that range is refused at encode time — below MinInt32 with
// the server's own ErrInvalidCount (such a count used to wrap: -(1<<32)+5
// arrived as 5), above MaxInt32 as a frame error — while the in-range
// negatives round-trip so the server answers invalid_count.
func TestSampleCountOutsideInt32Rejected(t *testing.T) {
	for _, tc := range []struct {
		t    int
		want error
	}{
		{math.MaxInt32 + 1, ErrFrame},
		{1 << 40, ErrFrame},
		{math.MinInt32 - 1, srv.ErrInvalidCount},
		{-(1 << 32) + 5, srv.ErrInvalidCount},
	} {
		if frame, err := EncodeSampleRequest(nil, SampleReq{Dataset: "d", T: tc.t}); !errors.Is(err, tc.want) {
			t.Errorf("t = %d: encoded %x, err %v; want %v", tc.t, frame, err, tc.want)
		}
	}
	for _, n := range []int{math.MinInt32, -1, 0, math.MaxInt32} {
		frame, err := EncodeSampleRequest(nil, SampleReq{Dataset: "d", T: n})
		if err != nil {
			t.Fatalf("t = %d: %v", n, err)
		}
		if got, err := DecodeSampleRequestRaw(frame); err != nil || got.T != n {
			t.Errorf("t = %d: decoded %d, %v", n, got.T, err)
		}
	}
}
