package wire

import (
	"encoding/binary"
	"testing"
)

// FuzzBinaryFrame pins the binary frame decoders' one hard obligation: a
// malformed frame — truncated, hostile counts, trailing bytes, any byte
// soup — must produce an error, never a panic or an oversized allocation.
// Frames that do decode must re-encode to the identical bytes (the format
// has exactly one encoding per value), which also exercises the encoders.
func FuzzBinaryFrame(f *testing.F) {
	okSample, err := EncodeSampleRequest(nil, SampleReq{Dataset: "events", Lo: 1, Hi: 2, T: 3})
	if err != nil {
		f.Fatal(err)
	}
	okInsert, err := EncodeInsertRequest(nil, InsertReq{
		Dataset: "w", Keys: []float64{1, 2}, Items: []Item{{Key: 3, Weight: 4}},
	})
	if err != nil {
		f.Fatal(err)
	}
	okSampleStats, err := EncodeSampleRequest(nil, SampleReq{Dataset: "events", Lo: -1, Hi: 9, T: 1024, Stats: true})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(okSample)
	f.Add(okSampleStats)
	f.Add(okInsert)
	f.Add(EncodeSampleStatsResponse(nil, 7, 2.5, []float64{1, 2, 3}))
	f.Add([]byte{})
	f.Add([]byte{0x01})
	f.Add([]byte{0x02, 0xff, 0xff, 0xff, 0xff})

	f.Fuzz(func(t *testing.T, data []byte) {
		if raw, err := DecodeSampleRequestRaw(data); err == nil {
			req := SampleReq{Dataset: string(raw.Name), Lo: raw.Lo, Hi: raw.Hi, T: raw.T, Stats: raw.Stats}
			re, err := EncodeSampleRequest(nil, req)
			if err != nil {
				t.Fatalf("decoded sample frame fails to re-encode: %v", err)
			}
			if string(re) != string(data) {
				t.Fatalf("sample frame not canonical: %x -> %+v -> %x", data, req, re)
			}
		}
		if name, items, err := DecodeInsertRequestItems(data, nil); err == nil {
			// The merged decode leads with the frame's unit-weight keys; the
			// frame's first count (after kind and name) says how many.
			nk := int(binary.LittleEndian.Uint32(data[2+len(name):]))
			req := InsertReq{Dataset: string(name), Items: items[nk:]}
			for _, it := range items[:nk] {
				if it.Weight != 1 {
					t.Fatalf("key decoded with weight %v", it.Weight)
				}
				req.Keys = append(req.Keys, it.Key)
			}
			re, err := EncodeInsertRequest(nil, req)
			if err != nil {
				t.Fatalf("decoded insert frame fails to re-encode: %v", err)
			}
			if string(re) != string(data) {
				t.Fatalf("insert frame not canonical: %x -> %+v -> %x", data, req, re)
			}
		}
		// Responses and the error payload: decode must never panic; no
		// canonical-form check (any count/payload mismatch is an error by
		// construction).
		_, _ = DecodeSampleResponse(data, nil)
		_, _, _, _ = DecodeSampleStatsResponse(data, nil)
		_, _, _ = DecodeRangeStatsResponse(data)
		_, _ = DecodeCountResponse(data)
		_, _, _, _ = DecodeError(data)
	})
}
