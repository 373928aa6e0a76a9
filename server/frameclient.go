package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"

	"github.com/irsgo/irs/internal/wire"
)

// FrameCarrier moves request frames to one daemon and their answers back —
// the part of a binary client that differs per carrier. Implementations
// are safe for concurrent use.
type FrameCarrier interface {
	// AppendEnvelope appends the room the carrier's request envelope
	// needs ahead of the frame (nothing, on HTTP).
	AppendEnvelope(b []byte) []byte
	// RoundTrip sends msg — the envelope room followed by one request
	// frame — and reads the response frame into *resp. readOnly is the
	// kind's retry rule: only a read-only request may be sent again once
	// its bytes may have reached the daemon. A served error is an
	// *APIError.
	RoundTrip(ctx context.Context, msg []byte, readOnly bool, resp *[]byte) error
	// Close releases the carrier's connections.
	Close() error
}

// FrameClient is the typed client of the binary frame protocol: every
// client.Conn method as one request frame over a FrameCarrier. irsnet.Client
// is a FrameClient over the persistent TCP transport; NewBinaryClient is one
// over HTTP. Request and response frames live in pooled buffers, so a
// steady-state round trip allocates nothing the carrier does not.
type FrameClient struct {
	carrier FrameCarrier
}

// NewFrameClient returns the frame client over c.
func NewFrameClient(c FrameCarrier) *FrameClient { return &FrameClient{carrier: c} }

// NewBinaryClient returns the frame client over HTTP to the daemon at base,
// e.g. "http://127.0.0.1:8080": each frame is POSTed to its kind's JSON
// path with Content-Type application/x-irs-bin, so nodes that predate
// delete, update, and stats frames still answer sample, insert, and range
// stats.
func NewBinaryClient(base string) *FrameClient {
	return NewFrameClient(httpCarrier{NewClient(base)})
}

// Sample requests t independent samples from [lo, hi] of dataset (empty
// selects the daemon's sole dataset).
func (c *FrameClient) Sample(ctx context.Context, dataset string, lo, hi float64, t int) ([]float64, error) {
	return c.SampleAppend(ctx, dataset, nil, lo, hi, t)
}

// SampleAppend is Sample appending into dst, so callers issuing many
// requests can reuse one result buffer. On error dst is returned
// unchanged.
func (c *FrameClient) SampleAppend(ctx context.Context, dataset string, dst []float64, lo, hi float64, t int) ([]float64, error) {
	out, _, _, err := c.sample(ctx, wire.SampleReq{Dataset: dataset, Lo: lo, Hi: hi, T: t}, dst)
	return out, err
}

// SampleStatsAppend is SampleAppend that also returns the range's in-range
// key count and sampling mass, read on the daemon under the same locks as
// the samples (frame kind 0x07); a range without sampling mass answers no
// samples and mass 0 instead of ErrEmptyRange.
func (c *FrameClient) SampleStatsAppend(ctx context.Context, dataset string, dst []float64, lo, hi float64, t int) ([]float64, int, float64, error) {
	return c.sample(ctx, wire.SampleReq{Dataset: dataset, Lo: lo, Hi: hi, T: t, Stats: true}, dst)
}

func (c *FrameClient) sample(ctx context.Context, req wire.SampleReq, dst []float64) ([]float64, int, float64, error) {
	resp, err := c.roundTrip(ctx, func(b []byte) ([]byte, error) { return wire.EncodeSampleRequest(b, req) })
	if err != nil {
		return dst, 0, 0, err
	}
	defer wire.PutBuf(resp)
	if req.Stats {
		return wire.DecodeSampleStatsResponse(*resp, dst)
	}
	out, err := wire.DecodeSampleResponse(*resp, dst)
	return out, 0, 0, err
}

// InsertKeys stores keys with unit weight, returning how many were stored.
func (c *FrameClient) InsertKeys(ctx context.Context, dataset string, keys []float64) (int, error) {
	return c.count(ctx, func(b []byte) ([]byte, error) {
		return wire.EncodeInsertRequest(b, wire.InsertReq{Dataset: dataset, Keys: keys})
	})
}

// InsertItems stores weighted items, returning how many were stored.
func (c *FrameClient) InsertItems(ctx context.Context, dataset string, items []Item) (int, error) {
	return c.count(ctx, func(b []byte) ([]byte, error) {
		return wire.EncodeInsertRequest(b, wire.InsertReq{Dataset: dataset, Items: items})
	})
}

// Delete removes one occurrence of each key, returning how many were
// present and removed.
func (c *FrameClient) Delete(ctx context.Context, dataset string, keys []float64) (int, error) {
	return c.count(ctx, func(b []byte) ([]byte, error) {
		return wire.EncodeDeleteRequest(b, wire.DeleteReq{Dataset: dataset, Keys: keys})
	})
}

// Update sets the weight of one occurrence of each item's key on a
// weighted dataset, returning how many keys were present and re-weighted.
// Unweighted datasets answer ErrNotWeighted.
func (c *FrameClient) Update(ctx context.Context, dataset string, items []Item) (int, error) {
	return c.count(ctx, func(b []byte) ([]byte, error) {
		return wire.EncodeUpdateRequest(b, wire.UpdateReq{Dataset: dataset, Items: items})
	})
}

// count is the round trip of the kinds answered by one u32 count.
func (c *FrameClient) count(ctx context.Context, encode func([]byte) ([]byte, error)) (int, error) {
	resp, err := c.roundTrip(ctx, encode)
	if err != nil {
		return 0, err
	}
	defer wire.PutBuf(resp)
	return wire.DecodeCountResponse(*resp)
}

// RangeStats returns the in-range key count and sampling mass of [lo, hi]
// — the probe the cluster router splits its cross-partition multinomial
// with.
func (c *FrameClient) RangeStats(ctx context.Context, dataset string, lo, hi float64) (int, float64, error) {
	resp, err := c.roundTrip(ctx, func(b []byte) ([]byte, error) {
		return wire.EncodeRangeStatsRequest(b, wire.RangeStatsReq{Dataset: dataset, Lo: lo, Hi: hi})
	})
	if err != nil {
		return 0, 0, err
	}
	defer wire.PutBuf(resp)
	return wire.DecodeRangeStatsResponse(*resp)
}

// Stats fetches the serving snapshot of every dataset. The document
// travels as JSON inside a stats frame — it is a scrape, not a hot path.
func (c *FrameClient) Stats(ctx context.Context) (Stats, error) {
	var st Stats
	resp, err := c.roundTrip(ctx, func(b []byte) ([]byte, error) { return wire.EncodeStatsRequest(b), nil })
	if err != nil {
		return st, err
	}
	defer wire.PutBuf(resp)
	err = json.Unmarshal(*resp, &st)
	return st, err
}

// Close releases the carrier's connections.
func (c *FrameClient) Close() error { return c.carrier.Close() }

// roundTrip encodes one request frame behind the carrier's envelope room,
// sends it under its kind's retry rule, and returns the pooled buffer
// holding the response frame; the caller puts it back.
func (c *FrameClient) roundTrip(ctx context.Context, encode func([]byte) ([]byte, error)) (*[]byte, error) {
	req := wire.GetBuf()
	defer wire.PutBuf(req)
	env := c.carrier.AppendEnvelope((*req)[:0])
	msg, err := encode(env)
	if err != nil {
		return nil, err
	}
	*req = msg
	resp := wire.GetBuf()
	op, _ := frameOpOf(msg[len(env):])
	if err := c.carrier.RoundTrip(ctx, msg, op.readOnly, resp); err != nil {
		wire.PutBuf(resp)
		return nil, err
	}
	return resp, nil
}

// httpCarrier is the HTTP carrier of the frame protocol: one POST per
// frame, to its kind's path, with no envelope; the response body is the
// response frame. It has no retry of its own, whatever the kind.
type httpCarrier struct{ c *Client }

func (httpCarrier) AppendEnvelope(b []byte) []byte { return b }

func (h httpCarrier) Close() error { return h.c.Close() }

func (h httpCarrier) RoundTrip(ctx context.Context, frame []byte, _ bool, resp *[]byte) error {
	op, _ := frameOpOf(frame)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, h.c.base+op.path, bytes.NewReader(frame))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", ContentTypeBinary)
	return h.c.do(req, func(r *http.Response) error {
		b, err := wire.ReadAllInto(r.Body, (*resp)[:0])
		*resp = b
		return err
	})
}
