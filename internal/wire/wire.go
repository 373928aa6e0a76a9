// Package wire is the compact binary encoding of the two hot serving
// requests, sample and insert, shared by every transport that speaks it:
// the HTTP handler/client pair (package server, negotiated per request via
// Content-Type: application/x-irs-bin) and the persistent multiplexed TCP
// transport (package server/irsnet, which carries the same frames prefixed
// with a length and a request ID). JSON costs the serving stack more than
// the samplers cost it — float formatting/parsing plus per-request decoder
// allocation — so the hot path frames raw little-endian values instead.
//
// Frame layout (all integers little-endian, all floats IEEE-754 bits
// little-endian; a transport delivers exactly one frame per request,
// trailing bytes are an error):
//
//	sample request   u8 kind=0x01 | u8 len(name) | name | f64 lo | f64 hi | u32 t
//	sample response  u32 n | n x f64 samples
//	sample+stats request   the sample request with kind=0x07
//	sample+stats response  rangestats response | sample response
//	                       (u64 count | f64 mass | u32 n | n x f64 samples)
//	insert request   u8 kind=0x02 | u8 len(name) | name | u32 nk | nk x f64 keys
//	                 | u32 ni | ni x (f64 key, f64 weight) items
//	insert response  u32 inserted
//
// Encode and decode run over pooled byte buffers on every transport, so
// the binary paths add no per-request buffer allocations on top of the
// zero-alloc serving core. The Raw decode variants return the dataset name
// as a subslice of the frame instead of a string, so a server hot path can
// intern it without allocating.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"

	srv "github.com/irsgo/irs/internal/server"
)

// ContentTypeBinary is the negotiated media type of the binary frames on
// the HTTP transport.
const ContentTypeBinary = "application/x-irs-bin"

// Item is one insert element as the serving core stores it.
type Item = srv.Item[float64]

// Frame kind bytes (first byte of every request frame). Sample and insert
// are the hot paths; delete, update, stats, and rangestats are cold-path
// frames (coldframes.go) added so the TCP transport covers the full client
// surface the unified client interface promises. Sample-with-stats is a
// sample whose answer leads with the range's (count, mass), read under the
// same locks as the samples — a cluster router's one round trip per node.
const (
	FrameSample      = 0x01
	FrameInsert      = 0x02
	FrameDelete      = 0x03
	FrameUpdate      = 0x04
	FrameStats       = 0x05
	FrameRangeStats  = 0x06
	FrameSampleStats = 0x07
)

// ErrFrame wraps every decode failure so transports can answer
// bad_request uniformly.
var ErrFrame = errors.New("irs-bin: malformed frame")

func frameErr(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrFrame, fmt.Sprintf(format, args...))
}

// maxRetainedElems bounds the element capacity a pooled buffer keeps:
// one outsized request must not leave multi-megabyte buffers circulating
// in the pools forever (the serving core's flusher scratch applies the
// same bound). Oversized buffers are reset to the pool's seed capacity.
const maxRetainedElems = 1 << 16

// bufPool recycles the encode/decode byte buffers of the binary paths
// (request bodies and frames on every transport).
var bufPool = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}

// GetBuf takes a pooled byte buffer (length 0, warm capacity).
func GetBuf() *[]byte { return bufPool.Get().(*[]byte) }

// PutBuf recycles b, dropping outsized growth.
func PutBuf(b *[]byte) {
	if cap(*b) > maxRetainedElems*8 {
		*b = make([]byte, 0, 4096)
	}
	*b = (*b)[:0]
	bufPool.Put(b)
}

// f64Pool recycles the float64 result buffers handlers sample into.
var f64Pool = sync.Pool{New: func() any { s := make([]float64, 0, 512); return &s }}

// GetF64 takes a pooled float64 buffer (length 0, warm capacity).
func GetF64() *[]float64 { return f64Pool.Get().(*[]float64) }

// PutF64 recycles s, dropping outsized growth.
func PutF64(s *[]float64) {
	if cap(*s) > maxRetainedElems {
		*s = make([]float64, 0, 512)
	}
	*s = (*s)[:0]
	f64Pool.Put(s)
}

// itemPool recycles the decoded insert-item buffers.
var itemPool = sync.Pool{New: func() any { s := make([]Item, 0, 256); return &s }}

// GetItems takes a pooled insert-item buffer (length 0, warm capacity).
func GetItems() *[]Item { return itemPool.Get().(*[]Item) }

// PutItems recycles s, dropping outsized growth.
func PutItems(s *[]Item) {
	if cap(*s) > maxRetainedElems {
		*s = make([]Item, 0, 256)
	}
	*s = (*s)[:0]
	itemPool.Put(s)
}

// ReadAllInto reads r to EOF into b's spare capacity, growing as needed,
// and returns the filled slice — the shared grow-and-read loop of the
// HTTP handler's body reader and the HTTP client's response reader.
func ReadAllInto(r io.Reader, b []byte) ([]byte, error) {
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return b, err
		}
	}
}

// AppendU32 / AppendU64 / AppendF64 are the frame-building primitives,
// exported so the TCP transport can build its length/ID envelope with the
// same vocabulary.
func AppendU32(b []byte, v uint32) []byte {
	return binary.LittleEndian.AppendUint32(b, v)
}

// AppendU64 appends a little-endian uint64.
func AppendU64(b []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(b, v)
}

// AppendF64 appends the IEEE-754 bits of v, little-endian.
func AppendF64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

// frameReader consumes one frame front to back with bounds checking; every
// read reports a typed framing error instead of panicking, which is the
// property the fuzz target pins.
type frameReader struct {
	b []byte
}

func (r *frameReader) u8() (byte, error) {
	if len(r.b) < 1 {
		return 0, frameErr("truncated u8")
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v, nil
}

func (r *frameReader) u16() (uint16, error) {
	if len(r.b) < 2 {
		return 0, frameErr("truncated u16")
	}
	v := binary.LittleEndian.Uint16(r.b)
	r.b = r.b[2:]
	return v, nil
}

func (r *frameReader) u32() (uint32, error) {
	if len(r.b) < 4 {
		return 0, frameErr("truncated u32")
	}
	v := binary.LittleEndian.Uint32(r.b)
	r.b = r.b[4:]
	return v, nil
}

func (r *frameReader) u64() (uint64, error) {
	if len(r.b) < 8 {
		return 0, frameErr("truncated u64")
	}
	v := binary.LittleEndian.Uint64(r.b)
	r.b = r.b[8:]
	return v, nil
}

func (r *frameReader) f64() (float64, error) {
	if len(r.b) < 8 {
		return 0, frameErr("truncated f64")
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.b))
	r.b = r.b[8:]
	return v, nil
}

// name returns the u8-length-prefixed name as a subslice of the frame —
// valid only while the frame's backing buffer is.
func (r *frameReader) name() ([]byte, error) {
	n, err := r.u8()
	if err != nil {
		return nil, err
	}
	if len(r.b) < int(n) {
		return nil, frameErr("truncated name (%d bytes declared, %d left)", n, len(r.b))
	}
	name := r.b[:n]
	r.b = r.b[n:]
	return name, nil
}

// bytes returns n raw bytes as a subslice of the frame.
func (r *frameReader) bytes(n int) ([]byte, error) {
	if len(r.b) < n {
		return nil, frameErr("truncated payload (%d bytes declared, %d left)", n, len(r.b))
	}
	b := r.b[:n]
	r.b = r.b[n:]
	return b, nil
}

// count reads a u32 element count and checks it against the bytes
// actually remaining at elemSize bytes per element, so a hostile count
// can never drive an oversized allocation.
func (r *frameReader) count(elemSize int) (int, error) {
	n, err := r.u32()
	if err != nil {
		return 0, err
	}
	if int64(n)*int64(elemSize) > int64(len(r.b)) {
		return 0, frameErr("count %d exceeds remaining %d bytes", n, len(r.b))
	}
	return int(n), nil
}

func (r *frameReader) done() error {
	if len(r.b) != 0 {
		return frameErr("%d trailing bytes", len(r.b))
	}
	return nil
}

// SampleReq is a decoded sample request frame; Stats marks the
// sample-with-stats kind.
type SampleReq struct {
	Dataset string
	Lo, Hi  float64
	T       int
	Stats   bool
}

// RawSampleReq is SampleReq with the dataset name still aliasing the frame
// buffer — the zero-alloc decode the TCP reader interns from.
type RawSampleReq struct {
	Name   []byte
	Lo, Hi float64
	T      int
	Stats  bool
}

// EncodeSampleRequest appends the sample request frame to b (kind 0x07
// when req.Stats is set, 0x01 otherwise).
func EncodeSampleRequest(b []byte, req SampleReq) ([]byte, error) {
	if len(req.Dataset) > 255 {
		return b, frameErr("dataset name longer than 255 bytes")
	}
	if req.T > math.MaxInt32 {
		// Truncating would silently request a different count; the JSON
		// encoding transmits the full int, so reject rather than diverge.
		return b, frameErr("sample count %d exceeds the wire format's int32 range", req.T)
	}
	kind := byte(FrameSample)
	if req.Stats {
		kind = FrameSampleStats
	}
	b = append(b, kind, byte(len(req.Dataset)))
	b = append(b, req.Dataset...)
	b = AppendF64(b, req.Lo)
	b = AppendF64(b, req.Hi)
	// Negative T is transmitted as-is (int32 two's complement) so the
	// server's count validation answers it exactly like the JSON path.
	b = AppendU32(b, uint32(int32(req.T)))
	return b, nil
}

// DecodeSampleRequestRaw parses one sample or sample-with-stats request
// frame without allocating: the returned name aliases b.
func DecodeSampleRequestRaw(b []byte) (RawSampleReq, error) {
	r := frameReader{b: b}
	var req RawSampleReq
	kind, err := r.u8()
	if err != nil {
		return req, err
	}
	if kind != FrameSample && kind != FrameSampleStats {
		return req, frameErr("kind 0x%02x on sample, want 0x%02x or 0x%02x", kind, FrameSample, FrameSampleStats)
	}
	req.Stats = kind == FrameSampleStats
	if req.Name, err = r.name(); err != nil {
		return req, err
	}
	if req.Lo, err = r.f64(); err != nil {
		return req, err
	}
	if req.Hi, err = r.f64(); err != nil {
		return req, err
	}
	t, err := r.u32()
	if err != nil {
		return req, err
	}
	req.T = int(int32(t)) // round-trips the client's int32 truncation, sign included
	return req, r.done()
}

// DecodeSampleRequest parses one sample request frame.
func DecodeSampleRequest(b []byte) (SampleReq, error) {
	raw, err := DecodeSampleRequestRaw(b)
	if err != nil {
		return SampleReq{}, err
	}
	return SampleReq{Dataset: string(raw.Name), Lo: raw.Lo, Hi: raw.Hi, T: raw.T, Stats: raw.Stats}, nil
}

// EncodeSampleResponse appends the sample response frame to b.
func EncodeSampleResponse(b []byte, samples []float64) []byte {
	b = AppendU32(b, uint32(len(samples)))
	for _, s := range samples {
		b = AppendF64(b, s)
	}
	return b
}

// DecodeSampleResponse parses a sample response frame, appending the
// samples to dst. On any decode error dst is returned at its original
// length — a malformed frame must not leave samples behind in a buffer
// the caller reuses.
func DecodeSampleResponse(b []byte, dst []float64) ([]float64, error) {
	r := frameReader{b: b}
	return r.samples(dst)
}

// EncodeSampleStatsResponse appends the sample-with-stats response frame
// to b: the rangestats response followed by the sample response.
func EncodeSampleStatsResponse(b []byte, count int, mass float64, samples []float64) []byte {
	return EncodeSampleResponse(EncodeRangeStatsResponse(b, count, mass), samples)
}

// DecodeSampleStatsResponse parses a sample-with-stats response frame,
// appending the samples to dst; on error dst is returned at its original
// length, as DecodeSampleResponse does.
func DecodeSampleStatsResponse(b []byte, dst []float64) (_ []float64, count int, mass float64, err error) {
	r := frameReader{b: b}
	if count, mass, err = r.rangeStats(); err != nil {
		return dst, 0, 0, err
	}
	if dst, err = r.samples(dst); err != nil {
		return dst, 0, 0, err
	}
	return dst, count, mass, nil
}

// samples reads a sample response — a u32 count and that many f64s — to
// the end of the frame, appending to dst; on error dst keeps its length.
func (r *frameReader) samples(dst []float64) ([]float64, error) {
	base := len(dst)
	n, err := r.count(8)
	if err != nil {
		return dst, err
	}
	for i := 0; i < n; i++ {
		v, err := r.f64()
		if err != nil {
			return dst[:base], err
		}
		dst = append(dst, v)
	}
	if err := r.done(); err != nil {
		return dst[:base], err
	}
	return dst, nil
}

// InsertReq is a decoded insert request frame. Keys is the unit-weight
// shorthand, Items the weighted form — the same split as the JSON request.
type InsertReq struct {
	Dataset string
	Keys    []float64
	Items   []Item
}

// EncodeInsertRequest appends the insert request frame to b.
func EncodeInsertRequest(b []byte, req InsertReq) ([]byte, error) {
	if len(req.Dataset) > 255 {
		return b, frameErr("dataset name longer than 255 bytes")
	}
	b = append(b, FrameInsert, byte(len(req.Dataset)))
	b = append(b, req.Dataset...)
	b = AppendU32(b, uint32(len(req.Keys)))
	for _, k := range req.Keys {
		b = AppendF64(b, k)
	}
	b = AppendU32(b, uint32(len(req.Items)))
	for _, it := range req.Items {
		b = AppendF64(b, it.Key)
		b = AppendF64(b, it.Weight)
	}
	return b, nil
}

// DecodeInsertRequest parses one insert request frame, appending decoded
// keys/items into the caller's (pooled) dst slices.
func DecodeInsertRequest(b []byte, keys []float64, items []Item) (InsertReq, error) {
	name, keys, items, err := decodeInsert(b, keys, items, false)
	if err != nil {
		return InsertReq{}, err
	}
	return InsertReq{Dataset: string(name), Keys: keys, Items: items}, nil
}

// DecodeInsertRequestItems parses one insert request frame straight into a
// single item slice — keys become unit-weight items ahead of the weighted
// items, the apply order every transport shares — without allocating: the
// returned name aliases b.
func DecodeInsertRequestItems(b []byte, items []Item) (name []byte, _ []Item, err error) {
	name, _, items, err = decodeInsert(b, nil, items, true)
	return name, items, err
}

// decodeInsert is the shared insert-frame walk. With merge set, keys are
// appended to items with unit weight (in frame order, ahead of the
// weighted items) and the keys slice is untouched.
func decodeInsert(b []byte, keys []float64, items []Item, merge bool) ([]byte, []float64, []Item, error) {
	r := frameReader{b: b}
	kind, err := r.u8()
	if err != nil {
		return nil, keys, items, err
	}
	if kind != FrameInsert {
		return nil, keys, items, frameErr("kind 0x%02x on insert, want 0x%02x", kind, FrameInsert)
	}
	name, err := r.name()
	if err != nil {
		return nil, keys, items, err
	}
	nk, err := r.count(8)
	if err != nil {
		return nil, keys, items, err
	}
	for i := 0; i < nk; i++ {
		v, err := r.f64()
		if err != nil {
			return nil, keys, items, err
		}
		if merge {
			items = append(items, Item{Key: v, Weight: 1})
		} else {
			keys = append(keys, v)
		}
	}
	ni, err := r.count(16)
	if err != nil {
		return nil, keys, items, err
	}
	for i := 0; i < ni; i++ {
		k, err := r.f64()
		if err != nil {
			return nil, keys, items, err
		}
		w, err := r.f64()
		if err != nil {
			return nil, keys, items, err
		}
		items = append(items, Item{Key: k, Weight: w})
	}
	return name, keys, items, r.done()
}

// EncodeInsertResponse appends the insert response frame to b.
func EncodeInsertResponse(b []byte, inserted int) []byte {
	return AppendU32(b, uint32(inserted))
}

// DecodeInsertResponse parses an insert response frame.
func DecodeInsertResponse(b []byte) (int, error) {
	r := frameReader{b: b}
	n, err := r.u32()
	if err != nil {
		return 0, err
	}
	return int(n), r.done()
}
