package wire

// The cold-path kinds: delete, update, stats, and rangestats (layouts in
// the package comment). None of these are throughput paths: servers answer
// them on ordinary goroutines and encode through the shared pooled buffers.

import "math"

// DeleteReq is a delete request (JSON body of /delete): remove one
// occurrence of each key.
type DeleteReq struct {
	Dataset string    `json:"dataset,omitempty"`
	Keys    []float64 `json:"keys,omitempty"`
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
	r.kind("delete", FrameDelete)
	name = r.name()
	for n := r.count(8); n > 0; n-- {
		keys = append(keys, r.f64())
	}
	return name, keys, r.done()
}

// UpdateReq is an update request (JSON body of /update): set the weight
// of one occurrence of each item's key on a weighted dataset.
type UpdateReq struct {
	Dataset string `json:"dataset,omitempty"`
	Items   []Item `json:"items,omitempty"`
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
	r.kind("update", FrameUpdate)
	name = r.name()
	for n := r.count(16); n > 0; n-- {
		k, w := r.f64(), r.f64()
		items = append(items, Item{Key: k, Weight: w})
	}
	return name, items, r.done()
}

// EncodeStatsRequest appends the (body-less) stats request frame to b.
func EncodeStatsRequest(b []byte) []byte {
	return append(b, FrameStats)
}

// DecodeStatsRequest validates a stats request frame.
func DecodeStatsRequest(b []byte) error {
	r := frameReader{b: b}
	r.kind("stats", FrameStats)
	return r.done()
}

// RangeStatsReq is a rangestats request (JSON body of /rangestats): the
// in-range key count and sampling mass of [Lo, Hi], the probe a cluster
// router splits its multinomial with.
type RangeStatsReq struct {
	Dataset string  `json:"dataset,omitempty"`
	Lo      float64 `json:"lo"`
	Hi      float64 `json:"hi"`
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
	r.kind("rangestats", FrameRangeStats)
	name = r.name()
	lo, hi = r.f64(), r.f64()
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
	count, mass = r.rangeStats()
	return count, mass, r.done()
}

// rangeStats reads the u64 count and f64 mass of a rangestats response,
// which also lead a sample-with-stats response.
func (r *frameReader) rangeStats() (int, float64) {
	c, m := r.u64(), r.f64()
	if c > math.MaxInt {
		r.fail("count %d overflows int", c)
	}
	if r.err != nil {
		return 0, 0
	}
	return int(c), m
}
