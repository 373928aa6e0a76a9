package wire

// The cold-path frames: delete, update, stats, and rangestats. They exist
// so the TCP transport (server/irsnet) can serve the complete client
// surface — the unified client interface in package client requires every
// implementation to answer Delete, Update, and Stats — and so a cluster
// router can run its mass probe (RangeStats) over whichever transport its
// node connections use. None of these are throughput paths: servers may
// answer them on ordinary goroutines and encode through the shared pooled
// buffers.
//
// Frame layout (same conventions as the hot frames):
//
//	delete request      u8 kind=0x03 | u8 len(name) | name | u32 nk | nk x f64 keys
//	delete response     u32 deleted
//	update request      u8 kind=0x04 | u8 len(name) | name | u32 ni | ni x (f64 key, f64 weight)
//	update response     u32 updated
//	stats request       u8 kind=0x05
//	stats response      raw JSON bytes of the stats document
//	rangestats request  u8 kind=0x06 | u8 len(name) | name | f64 lo | f64 hi
//	rangestats response u64 count | f64 mass
//
// The stats response reuses the JSON document rather than a binary layout:
// stats are scraped a few times a second at most, and the document's shape
// (nested, optional persist section) would make a fixed binary layout
// brittle for zero win.

import "math"

// DeleteReq is a decoded delete request frame.
type DeleteReq struct {
	Dataset string
	Keys    []float64
}

// EncodeDeleteRequest appends the delete request frame to b.
func EncodeDeleteRequest(b []byte, req DeleteReq) ([]byte, error) {
	if len(req.Dataset) > 255 {
		return b, frameErr("dataset name longer than 255 bytes")
	}
	b = append(b, FrameDelete, byte(len(req.Dataset)))
	b = append(b, req.Dataset...)
	b = AppendU32(b, uint32(len(req.Keys)))
	for _, k := range req.Keys {
		b = AppendF64(b, k)
	}
	return b, nil
}

// DecodeDeleteRequest parses one delete request frame, appending the keys
// into the caller's (pooled) dst slice. The returned name aliases b.
func DecodeDeleteRequest(b []byte, keys []float64) (name []byte, _ []float64, err error) {
	r := frameReader{b: b}
	kind, err := r.u8()
	if err != nil {
		return nil, keys, err
	}
	if kind != FrameDelete {
		return nil, keys, frameErr("kind 0x%02x on delete, want 0x%02x", kind, FrameDelete)
	}
	if name, err = r.name(); err != nil {
		return nil, keys, err
	}
	nk, err := r.count(8)
	if err != nil {
		return nil, keys, err
	}
	for i := 0; i < nk; i++ {
		v, err := r.f64()
		if err != nil {
			return nil, keys, err
		}
		keys = append(keys, v)
	}
	return name, keys, r.done()
}

// EncodeDeleteResponse appends the delete response frame to b.
func EncodeDeleteResponse(b []byte, deleted int) []byte {
	return AppendU32(b, uint32(deleted))
}

// DecodeDeleteResponse parses a delete response frame.
func DecodeDeleteResponse(b []byte) (int, error) {
	r := frameReader{b: b}
	n, err := r.u32()
	if err != nil {
		return 0, err
	}
	return int(n), r.done()
}

// UpdateReq is a decoded update request frame.
type UpdateReq struct {
	Dataset string
	Items   []Item
}

// EncodeUpdateRequest appends the update request frame to b.
func EncodeUpdateRequest(b []byte, req UpdateReq) ([]byte, error) {
	if len(req.Dataset) > 255 {
		return b, frameErr("dataset name longer than 255 bytes")
	}
	b = append(b, FrameUpdate, byte(len(req.Dataset)))
	b = append(b, req.Dataset...)
	b = AppendU32(b, uint32(len(req.Items)))
	for _, it := range req.Items {
		b = AppendF64(b, it.Key)
		b = AppendF64(b, it.Weight)
	}
	return b, nil
}

// DecodeUpdateRequest parses one update request frame, appending the items
// into the caller's (pooled) dst slice. The returned name aliases b.
func DecodeUpdateRequest(b []byte, items []Item) (name []byte, _ []Item, err error) {
	r := frameReader{b: b}
	kind, err := r.u8()
	if err != nil {
		return nil, items, err
	}
	if kind != FrameUpdate {
		return nil, items, frameErr("kind 0x%02x on update, want 0x%02x", kind, FrameUpdate)
	}
	if name, err = r.name(); err != nil {
		return nil, items, err
	}
	ni, err := r.count(16)
	if err != nil {
		return nil, items, err
	}
	for i := 0; i < ni; i++ {
		k, err := r.f64()
		if err != nil {
			return nil, items, err
		}
		w, err := r.f64()
		if err != nil {
			return nil, items, err
		}
		items = append(items, Item{Key: k, Weight: w})
	}
	return name, items, r.done()
}

// EncodeUpdateResponse appends the update response frame to b.
func EncodeUpdateResponse(b []byte, updated int) []byte {
	return AppendU32(b, uint32(updated))
}

// DecodeUpdateResponse parses an update response frame.
func DecodeUpdateResponse(b []byte) (int, error) {
	r := frameReader{b: b}
	n, err := r.u32()
	if err != nil {
		return 0, err
	}
	return int(n), r.done()
}

// EncodeStatsRequest appends the (body-less) stats request frame to b.
func EncodeStatsRequest(b []byte) []byte {
	return append(b, FrameStats)
}

// DecodeStatsRequest validates a stats request frame.
func DecodeStatsRequest(b []byte) error {
	r := frameReader{b: b}
	kind, err := r.u8()
	if err != nil {
		return err
	}
	if kind != FrameStats {
		return frameErr("kind 0x%02x on stats, want 0x%02x", kind, FrameStats)
	}
	return r.done()
}

// RangeStatsReq is a decoded rangestats request frame.
type RangeStatsReq struct {
	Dataset string
	Lo, Hi  float64
}

// EncodeRangeStatsRequest appends the rangestats request frame to b.
func EncodeRangeStatsRequest(b []byte, req RangeStatsReq) ([]byte, error) {
	if len(req.Dataset) > 255 {
		return b, frameErr("dataset name longer than 255 bytes")
	}
	b = append(b, FrameRangeStats, byte(len(req.Dataset)))
	b = append(b, req.Dataset...)
	b = AppendF64(b, req.Lo)
	b = AppendF64(b, req.Hi)
	return b, nil
}

// DecodeRangeStatsRequest parses one rangestats request frame. The returned
// name aliases b.
func DecodeRangeStatsRequest(b []byte) (name []byte, lo, hi float64, err error) {
	r := frameReader{b: b}
	kind, err := r.u8()
	if err != nil {
		return nil, 0, 0, err
	}
	if kind != FrameRangeStats {
		return nil, 0, 0, frameErr("kind 0x%02x on rangestats, want 0x%02x", kind, FrameRangeStats)
	}
	if name, err = r.name(); err != nil {
		return nil, 0, 0, err
	}
	if lo, err = r.f64(); err != nil {
		return nil, 0, 0, err
	}
	if hi, err = r.f64(); err != nil {
		return nil, 0, 0, err
	}
	return name, lo, hi, r.done()
}

// EncodeRangeStatsResponse appends the rangestats response frame to b.
func EncodeRangeStatsResponse(b []byte, count int, mass float64) []byte {
	b = AppendU64(b, uint64(count))
	return AppendF64(b, mass)
}

// DecodeRangeStatsResponse parses a rangestats response frame.
func DecodeRangeStatsResponse(b []byte) (count int, mass float64, err error) {
	r := frameReader{b: b}
	if count, mass, err = r.rangeStats(); err != nil {
		return 0, 0, err
	}
	return count, mass, r.done()
}

// rangeStats reads the u64 count and f64 mass of a rangestats response,
// which also lead a sample-with-stats response.
func (r *frameReader) rangeStats() (int, float64, error) {
	c, err := r.u64()
	if err != nil {
		return 0, 0, err
	}
	m, err := r.f64()
	if err != nil {
		return 0, 0, err
	}
	if c > math.MaxInt {
		return 0, 0, frameErr("count %d overflows int", c)
	}
	return int(c), m, nil
}
