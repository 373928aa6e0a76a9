package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"slices"
	"strconv"
	"strings"
	"sync"

	"github.com/irsgo/irs/internal/wire"
)

// The JSON codec of the frame table. A row's request codec decodes a body
// strictly into the row's wire request type and appends that request's
// frame; its response codec appends the fields of the typed response
// (SampleResponse, ...) that follow "dataset", read off the response
// frame. Together with jsonResponse they write exactly the bytes
// json.NewEncoder(w).Encode of the typed response would.

// jsonRequest is the request codec of a row whose request type is R: the
// body's first value decodes into R with unknown fields rejected, and
// encode appends R's frame.
func jsonRequest[R any](encode func([]byte, R) ([]byte, error)) func(body, b []byte) ([]byte, error) {
	return func(body, b []byte) ([]byte, error) {
		var req R
		rd := readerPool.Get().(*bytes.Reader)
		defer readerPool.Put(rd)
		rd.Reset(body)
		dec := json.NewDecoder(rd)
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			return b, badJSON{err}
		}
		frame, err := encode(b, req)
		if errors.Is(err, wire.ErrFrame) {
			// The one frame error a decoded body can meet: a name longer
			// than a frame carries, which no dataset served by frames has.
			return b, ErrUnknownDataset
		}
		return frame, err
	}
}

// readerPool recycles the readers the JSON decoder reads bodies from.
var readerPool = sync.Pool{New: func() any { return new(bytes.Reader) }}

// sampleFrame encodes the sample frame of a JSON request. A count outside
// int32 cannot ride the frame; clamped into it, the count still gets the
// answer its true value would: invalid_count, from the core below 1 and
// from serveSample above wire.MaxSampleCount.
func sampleFrame(b []byte, req SampleRequest) ([]byte, error) {
	req.T = min(max(req.T, math.MinInt32), math.MaxInt32)
	return wire.EncodeSampleRequest(b, req)
}

// badJSON is a body strict encoding/json rejects: bad_request, with the
// message the JSON endpoints have always answered.
type badJSON struct{ err error }

func (e badJSON) Error() string { return "malformed JSON body: " + e.err.Error() }

func (badJSON) Is(target error) bool { return target == wire.ErrFrame }

// frameOfJSON appends the request frame of a JSON body for op to b, with
// the dataset name resolved as the response echoes it: an omitted name is
// the sole dataset's, spliced into the frame.
func (s *Server) frameOfJSON(op *frameOp, body, b []byte) ([]byte, error) {
	b, err := op.fromJSON(body, b)
	if err != nil || b[1] != 0 {
		return b, err
	}
	name, err := s.backend.Resolve("")
	if err != nil {
		return b, err
	}
	if len(name) > 255 {
		return b, ErrUnknownDataset
	}
	b[1] = byte(len(name))
	return slices.Insert(b, 2, []byte(name)...), nil
}

// jsonResponse appends the JSON body answering a request for dataset name
// with the response frame, through op's response codec.
func jsonResponse(op *frameOp, b, name, frame []byte) ([]byte, error) {
	b = append(b, `{"dataset":`...)
	if bytes.ContainsFunc(name, func(r rune) bool { return r < 0x20 || r > 0x7e || strings.ContainsRune(`"\<>&`, r) }) {
		q, _ := json.Marshal(string(name)) // a name encoding/json escapes
		b = append(b, q...)
	} else {
		b = append(append(append(b, '"'), name...), '"')
	}
	b, err := op.toJSON(b, frame)
	return append(b, "}\n"...), err
}

// sampleJSON appends SampleResponse's samples.
func sampleJSON(b, frame []byte) ([]byte, error) {
	dst := wire.GetF64()
	defer wire.PutF64(dst)
	samples, err := wire.DecodeSampleResponse(frame, (*dst)[:0])
	*dst = samples
	b = append(b, `,"samples":[`...)
	for i, v := range samples {
		if i > 0 {
			b = append(b, ',')
		}
		b, err = appendFloat(b, v, err)
	}
	return append(b, ']'), err
}

// countJSON appends the count of a row answered by one, under its
// response type's json tag (InsertResponse's "inserted", ...).
func countJSON(field string) func(b, frame []byte) ([]byte, error) {
	key := `,"` + field + `":`
	return func(b, frame []byte) ([]byte, error) {
		n, err := wire.DecodeCountResponse(frame)
		return strconv.AppendInt(append(b, key...), int64(n), 10), err
	}
}

// rangeStatsJSON appends RangeStatsResponse's count and mass.
func rangeStatsJSON(b, frame []byte) ([]byte, error) {
	n, mass, err := wire.DecodeRangeStatsResponse(frame)
	b = strconv.AppendInt(append(b, `,"count":`...), int64(n), 10)
	return appendFloat(append(b, `,"mass":`...), mass, err)
}

// appendFloat appends v as encoding/json writes a float64 — the shortest
// decimal that round-trips, in exponent form below 1e-6 and from 1e21 up,
// with 1e-07 written 1e-7 — unless err is already set. NaN and ±Inf have no
// JSON form and fail, as they do in encoding/json.
func appendFloat(b []byte, v float64, err error) ([]byte, error) {
	if err != nil {
		return b, err
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return b, &json.UnsupportedValueError{Str: strconv.FormatFloat(v, 'g', -1, 64)}
	}
	format := byte('f')
	if a := math.Abs(v); a != 0 && (a < 1e-6 || a >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, v, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b, nil
}
