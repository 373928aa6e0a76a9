// Package wire is the binary frame protocol of the irsd serving stack: one
// request frame and one response frame per operation, shared by every
// carrier that speaks it — binary-over-HTTP (package server, negotiated per
// request via Content-Type: application/x-irs-bin, accepted on every data
// endpoint) and the persistent multiplexed TCP transport (package
// server/irsnet, which wraps each frame in a length and a request ID).
// JSON costs the serving stack more than the samplers cost it — float
// formatting/parsing plus per-request decoder allocation — so the frames
// carry raw little-endian values instead. JSON itself is a codec onto these
// frames: the request types' json tags spell the JSON bodies, and package
// server holds the one table mapping each kind to its backend call, HTTP
// path and JSON codec. This comment is the one place the layouts are
// written down.
//
// Frame layout (all integers little-endian, all floats IEEE-754 bits
// little-endian; a carrier delivers exactly one frame per request,
// trailing bytes are an error; name is u8 len(name) | name):
//
//	0x01 sample        request   u8 kind | name | f64 lo | f64 hi | u32 t (int32 two's complement)
//	                   response  u32 n | n x f64 samples
//	0x02 insert        request   u8 kind | name | u32 nk | nk x f64 keys
//	                             | u32 ni | ni x (f64 key, f64 weight)
//	                   response  u32 inserted
//	0x03 delete        request   u8 kind | name | u32 nk | nk x f64 keys
//	                   response  u32 deleted
//	0x04 update        request   u8 kind | name | u32 ni | ni x (f64 key, f64 weight)
//	                   response  u32 updated
//	0x05 stats         request   u8 kind
//	                   response  raw JSON bytes of the stats document
//	0x06 rangestats    request   u8 kind | name | f64 lo | f64 hi
//	                   response  u64 count | f64 mass
//	0x07 sample+stats  request   the sample request with kind=0x07
//	                   response  rangestats response | sample response
//
// Sample and insert are the hot kinds; sample-with-stats is a sample whose
// answer leads with the range's (count, mass), read under the same locks
// as the samples — a cluster router's one round trip per node. A sample's
// t is at most MaxSampleCount, so its response fits one message. The stats
// response reuses the JSON document rather than a binary layout: stats are
// scraped a few times a second at most, and the document's shape (nested,
// optional persist section) would make a fixed layout brittle for zero win.
//
// Encode and decode run over pooled byte buffers on every carrier, so the
// binary paths add no per-request buffer allocations on top of the
// zero-alloc serving core. The request decoders return the dataset name
// as a subslice of the frame instead of a string, so the server can intern
// it without allocating; they are the only request decoders, so the fuzz
// target runs exactly what the server runs.
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

// MaxMessageBytes bounds one message on every carrier: an HTTP request
// body, and the length field of an irsnet message (the bytes after it). A
// megabyte-scale insert batch is the intended granularity; anything larger
// should arrive as several requests.
const MaxMessageBytes = 8 << 20

// MaxSampleCount is the largest sample count a request may ask for: the
// most samples whose sample-with-stats response (u64 count, f64 mass,
// u32 n, n f64s) still fits one MaxMessageBytes message behind irsnet's
// 9-byte response header (u64 id, u8 status). The dispatcher refuses a
// larger count with invalid_count before anything is drawn.
const MaxSampleCount = (MaxMessageBytes - 9 - 8 - 8 - 4) / 8

// Item is one insert element as the serving core stores it.
type Item = srv.Item[float64]

// Frame kind bytes (first byte of every request frame); the package
// comment gives each kind's layout.
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

// frameReader consumes one frame front to back with bounds checking. The
// first failure sticks: fail keeps it in err and drops the rest of the
// frame, so later reads return zero values (and later failures are
// ignored), and a decoder reads its whole layout and checks once, at done. A malformed frame errors instead of
// panicking, which is the property the fuzz target pins.
type frameReader struct {
	b   []byte
	err error
}

// fail records the frame's first failure, and drops what is left of the
// frame so every later read fails too.
func (r *frameReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = frameErr(format, args...)
	}
	r.b = nil
}

// zeros is what fixed reads once the frame has failed.
var zeros [8]byte

// fixed returns the next n <= 8 bytes, what naming them in the truncation
// error.
func (r *frameReader) fixed(n int, what string) []byte {
	if len(r.b) < n {
		r.fail("truncated %s", what)
		return zeros[:n]
	}
	v := r.b[:n]
	r.b = r.b[n:]
	return v
}

func (r *frameReader) u8() byte    { return r.fixed(1, "u8")[0] }
func (r *frameReader) u16() uint16 { return binary.LittleEndian.Uint16(r.fixed(2, "u16")) }
func (r *frameReader) u32() uint32 { return binary.LittleEndian.Uint32(r.fixed(4, "u32")) }
func (r *frameReader) u64() uint64 { return binary.LittleEndian.Uint64(r.fixed(8, "u64")) }
func (r *frameReader) f64() float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(r.fixed(8, "f64")))
}
func (r *frameReader) name() []byte { return r.bytes(int(r.u8()), "name") }

// bytes returns n raw bytes as a subslice of the frame — valid only while
// the frame's backing buffer is — or nil once the frame has failed.
func (r *frameReader) bytes(n int, what string) []byte {
	if len(r.b) < n {
		r.fail("truncated %s (%d bytes declared, %d left)", what, n, len(r.b))
		return nil
	}
	v := r.b[:n]
	r.b = r.b[n:]
	return v
}

// kind reads the kind byte, which must be want; op names the decoder in
// the error.
func (r *frameReader) kind(op string, want byte) {
	if k := r.u8(); k != want {
		r.fail("kind 0x%02x on %s, want 0x%02x", k, op, want)
	}
}

// count reads a u32 element count and checks it against the bytes
// actually remaining at elemSize bytes per element, so a hostile count
// can never drive an oversized allocation.
func (r *frameReader) count(elemSize int) int {
	n := r.u32()
	if int64(n)*int64(elemSize) > int64(len(r.b)) {
		r.fail("count %d exceeds remaining %d bytes", n, len(r.b))
		return 0
	}
	return int(n)
}

// done returns the frame's first failure, or a trailing-bytes error.
func (r *frameReader) done() error {
	if len(r.b) != 0 {
		r.fail("%d trailing bytes", len(r.b))
	}
	return r.err
}

// SampleReq is a sample request, as a frame carries it and as the JSON
// body of /sample spells it. Stats marks the sample-with-stats kind, which
// has no JSON form, so a "stats" field is unknown to the JSON decoder.
type SampleReq struct {
	Dataset string  `json:"dataset,omitempty"`
	Lo      float64 `json:"lo"`
	Hi      float64 `json:"hi"`
	T       int     `json:"t"`
	Stats   bool    `json:"-"`
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
	// Truncating would silently request a different count (-(1<<32)+5
	// would arrive as 5), so a count outside int32 is refused here: a
	// negative one with the error the server gives every count below 1.
	if req.T > math.MaxInt32 {
		return b, frameErr("sample count %d exceeds the wire format's int32 range", req.T)
	}
	if req.T < math.MinInt32 {
		return b, fmt.Errorf("%w: %d", srv.ErrInvalidCount, req.T)
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
	kind := r.u8()
	if kind != FrameSample && kind != FrameSampleStats {
		r.fail("kind 0x%02x on sample, want 0x%02x or 0x%02x", kind, FrameSample, FrameSampleStats)
	}
	req := RawSampleReq{Stats: kind == FrameSampleStats}
	req.Name = r.name()
	req.Lo, req.Hi = r.f64(), r.f64()
	req.T = int(int32(r.u32())) // round-trips the client's int32 truncation, sign included
	return req, r.done()
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
	count, mass = r.rangeStats()
	if dst, err = r.samples(dst); err != nil {
		return dst, 0, 0, err
	}
	return dst, count, mass, nil
}

// samples reads a sample response — a u32 count and that many f64s — to
// the end of the frame, appending to dst; on error dst keeps its length.
func (r *frameReader) samples(dst []float64) ([]float64, error) {
	base := len(dst)
	for n := r.count(8); n > 0; n-- {
		dst = append(dst, r.f64())
	}
	if err := r.done(); err != nil {
		return dst[:base], err
	}
	return dst, nil
}

// InsertReq is an insert request, as a frame carries it and as the JSON
// body of /insert spells it. Keys is the unit-weight shorthand, Items the
// weighted form; on unweighted datasets all weights are ignored.
type InsertReq struct {
	Dataset string    `json:"dataset,omitempty"`
	Keys    []float64 `json:"keys,omitempty"`
	Items   []Item    `json:"items,omitempty"`
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

// DecodeInsertRequestItems parses one insert request frame straight into a
// single item slice — keys become unit-weight items ahead of the weighted
// items, the apply order every transport shares — without allocating: the
// returned name aliases b.
func DecodeInsertRequestItems(b []byte, items []Item) (name []byte, _ []Item, err error) {
	r := frameReader{b: b}
	r.kind("insert", FrameInsert)
	name = r.name()
	for n := r.count(8); n > 0; n-- {
		items = append(items, Item{Key: r.f64(), Weight: 1})
	}
	for n := r.count(16); n > 0; n-- {
		k, w := r.f64(), r.f64()
		items = append(items, Item{Key: k, Weight: w})
	}
	return name, items, r.done()
}

// EncodeCountResponse appends the response frame of insert, delete, and
// update — one u32 count — to b.
func EncodeCountResponse(b []byte, n int) []byte {
	return AppendU32(b, uint32(n))
}

// DecodeCountResponse parses an insert, delete, or update response frame.
func DecodeCountResponse(b []byte) (int, error) {
	r := frameReader{b: b}
	n := r.u32()
	return int(n), r.done()
}
