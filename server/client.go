package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"

	"github.com/irsgo/irs/internal/wire"
)

// Client is the typed Go client of the irsd protocol. It is safe for
// concurrent use; the zero HTTPClient means the dedicated pooled client
// NewClient builds (http.DefaultClient caps idle connections per host at
// 2, which makes every concurrency-N workload past N=2 re-dial
// constantly — see newPooledHTTPClient).
type Client struct {
	base string
	// HTTPClient overrides the transport (timeouts, connection pooling).
	HTTPClient *http.Client
	// Binary switches Sample/SampleAppend/InsertKeys/InsertItems to the
	// compact binary frames (Content-Type application/x-irs-bin) with
	// pooled encode/decode buffers; the remaining endpoints, and every
	// error response, stay JSON — errors.Is works identically either way.
	Binary bool
}

// NewClient returns a client for the daemon at base, e.g.
// "http://127.0.0.1:8080".
func NewClient(base string) *Client {
	return &Client{base: strings.TrimRight(base, "/"), HTTPClient: newPooledHTTPClient()}
}

// newPooledHTTPClient builds the client's default transport. The stock
// http.DefaultTransport allows only DefaultMaxIdleConnsPerHost (2) idle
// connections to one host: a 64-way concurrent caller keeps 64 connections
// busy, but the moment a burst ends, all but 2 are torn down and the next
// burst pays full TCP re-dial latency, which shows up as a latency tail
// under bursty load. A typed client talks to exactly one host, so
// idle-per-host may match the total idle pool.
func newPooledHTTPClient() *http.Client {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConns = 256
	tr.MaxIdleConnsPerHost = 256
	return &http.Client{Transport: tr}
}

// APIError is a decoded irsd error response. Unwrap yields the matching
// sentinel (ErrOverloaded, ErrEmptyRange, ...), so
// errors.Is(err, server.ErrOverloaded) works across the wire.
type APIError struct {
	Code    string // wire code, e.g. "overloaded"
	Message string // human-readable server message
	Status  int    // HTTP status
}

func (e *APIError) Error() string {
	return fmt.Sprintf("irsd: %s (http %d): %s", e.Code, e.Status, e.Message)
}

func (e *APIError) Unwrap() error { return wire.CodeToErr[e.Code] }

// Sample requests t independent samples from [lo, hi] of dataset (empty
// selects the daemon's sole dataset).
func (c *Client) Sample(ctx context.Context, dataset string, lo, hi float64, t int) ([]float64, error) {
	return c.SampleAppend(ctx, dataset, nil, lo, hi, t)
}

// SampleAppend is Sample appending into dst, so callers issuing many
// requests can reuse one result buffer. On error dst is returned
// unchanged.
func (c *Client) SampleAppend(ctx context.Context, dataset string, dst []float64, lo, hi float64, t int) ([]float64, error) {
	if c.Binary {
		out, _, _, err := c.sampleBinary(ctx, wire.SampleReq{Dataset: dataset, Lo: lo, Hi: hi, T: t}, dst)
		return out, err
	}
	var resp SampleResponse
	if err := c.post(ctx, "/sample", SampleRequest{Dataset: dataset, Lo: lo, Hi: hi, T: t}, &resp); err != nil {
		return dst, err
	}
	if dst == nil {
		return resp.Samples, nil // plain Sample: hand over the decoded slice
	}
	return append(dst, resp.Samples...), nil
}

// SampleStatsAppend is SampleAppend that also returns the range's in-range
// key count and sampling mass, read on the daemon under the same locks as
// the samples; a range without sampling mass answers no samples and mass 0
// instead of ErrEmptyRange. It always travels as a binary frame (kind
// 0x07), whatever Binary says: there is no JSON form.
func (c *Client) SampleStatsAppend(ctx context.Context, dataset string, dst []float64, lo, hi float64, t int) ([]float64, int, float64, error) {
	return c.sampleBinary(ctx, wire.SampleReq{Dataset: dataset, Lo: lo, Hi: hi, T: t, Stats: true}, dst)
}

// sampleBinary posts one binary sample frame of either kind; the count and
// mass are zero unless req.Stats asked for them. On error dst is returned
// unchanged.
func (c *Client) sampleBinary(ctx context.Context, req wire.SampleReq, dst []float64) ([]float64, int, float64, error) {
	buf := wire.GetBuf()
	defer wire.PutBuf(buf)
	frame, err := wire.EncodeSampleRequest((*buf)[:0], req)
	if err != nil {
		return dst, 0, 0, err
	}
	*buf = frame
	body, err := c.postFrame(ctx, "/sample", frame, buf)
	if err != nil {
		return dst, 0, 0, err
	}
	if req.Stats {
		return wire.DecodeSampleStatsResponse(body, dst)
	}
	out, err := wire.DecodeSampleResponse(body, dst)
	return out, 0, 0, err
}

// InsertKeys stores keys with unit weight, returning how many were stored.
func (c *Client) InsertKeys(ctx context.Context, dataset string, keys []float64) (int, error) {
	if c.Binary {
		return c.insertBinary(ctx, wire.InsertReq{Dataset: dataset, Keys: keys})
	}
	var resp InsertResponse
	err := c.post(ctx, "/insert", InsertRequest{Dataset: dataset, Keys: keys}, &resp)
	return resp.Inserted, err
}

// InsertItems stores weighted items, returning how many were stored.
func (c *Client) InsertItems(ctx context.Context, dataset string, items []Item) (int, error) {
	if c.Binary {
		return c.insertBinary(ctx, wire.InsertReq{Dataset: dataset, Items: items})
	}
	var resp InsertResponse
	err := c.post(ctx, "/insert", InsertRequest{Dataset: dataset, Items: items}, &resp)
	return resp.Inserted, err
}

func (c *Client) insertBinary(ctx context.Context, req wire.InsertReq) (int, error) {
	buf := wire.GetBuf()
	defer wire.PutBuf(buf)
	frame, err := wire.EncodeInsertRequest((*buf)[:0], req)
	if err != nil {
		return 0, err
	}
	*buf = frame
	body, err := c.postFrame(ctx, "/insert", frame, buf)
	if err != nil {
		return 0, err
	}
	return wire.DecodeInsertResponse(body)
}

// RangeStats returns the in-range key count and sampling mass of [lo, hi]
// — the probe the cluster router splits its cross-partition multinomial
// with. Binary clients carry it as a rangestats frame.
func (c *Client) RangeStats(ctx context.Context, dataset string, lo, hi float64) (int, float64, error) {
	if c.Binary {
		buf := wire.GetBuf()
		defer wire.PutBuf(buf)
		frame, err := wire.EncodeRangeStatsRequest((*buf)[:0], wire.RangeStatsReq{Dataset: dataset, Lo: lo, Hi: hi})
		if err != nil {
			return 0, 0, err
		}
		*buf = frame
		body, err := c.postFrame(ctx, "/rangestats", frame, buf)
		if err != nil {
			return 0, 0, err
		}
		return wire.DecodeRangeStatsResponse(body)
	}
	var resp RangeStatsResponse
	if err := c.post(ctx, "/rangestats", RangeStatsRequest{Dataset: dataset, Lo: lo, Hi: hi}, &resp); err != nil {
		return 0, 0, err
	}
	return resp.Count, resp.Mass, nil
}

// Delete removes one occurrence of each key, returning how many were
// present and removed.
func (c *Client) Delete(ctx context.Context, dataset string, keys []float64) (int, error) {
	var resp DeleteResponse
	err := c.post(ctx, "/delete", DeleteRequest{Dataset: dataset, Keys: keys}, &resp)
	return resp.Removed, err
}

// Update sets the weight of one occurrence of each item's key on a
// weighted dataset, returning how many keys were present and re-weighted.
// Unweighted datasets answer ErrNotWeighted.
func (c *Client) Update(ctx context.Context, dataset string, items []Item) (int, error) {
	var resp UpdateResponse
	err := c.post(ctx, "/update", UpdateRequest{Dataset: dataset, Items: items}, &resp)
	return resp.Updated, err
}

// Snapshot asks the daemon to take a point-in-time snapshot of a durable
// dataset (compacting its WAL), returning the covered WAL sequence and
// item count. Memory-only datasets answer ErrNotDurable.
func (c *Client) Snapshot(ctx context.Context, dataset string) (SnapshotResponse, error) {
	var resp SnapshotResponse
	err := c.post(ctx, "/snapshot", SnapshotRequest{Dataset: dataset}, &resp)
	return resp, err
}

// AddDataset creates a dataset on the daemon at runtime (POST /datasets).
// The daemon builds it through its Provisioner — same shard count, seed
// policy, and durability as a boot-time dataset. A name already registered
// answers ErrDuplicateDataset.
func (c *Client) AddDataset(ctx context.Context, dataset string, weighted bool) error {
	var resp AddDatasetResponse
	return c.post(ctx, "/datasets", AddDatasetRequest{Dataset: dataset, Weighted: weighted}, &resp)
}

// DropDataset drains and unregisters a dataset (DELETE /datasets/{name}).
// Requests the dataset had already accepted are answered before the drop
// returns; snapshot asks for a final compacting snapshot before its store
// closes (ignored for memory-only datasets). Absent names answer
// ErrUnknownDataset.
func (c *Client) DropDataset(ctx context.Context, dataset string, snapshot bool) error {
	path := "/datasets/" + dataset
	if snapshot {
		path += "?snapshot=true"
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete, c.base+path, nil)
	if err != nil {
		return err
	}
	var resp DropDatasetResponse
	return c.do(req, &resp)
}

// ListDatasets fetches the registry listing (GET /datasets): each
// dataset's name, kind, lifecycle state, and durability.
func (c *Client) ListDatasets(ctx context.Context) ([]DatasetInfo, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/datasets", nil)
	if err != nil {
		return nil, err
	}
	var resp ListDatasetsResponse
	if err := c.do(req, &resp); err != nil {
		return nil, err
	}
	return resp.Datasets, nil
}

// Stats fetches the serving snapshot of every dataset.
func (c *Client) Stats(ctx context.Context) (Stats, error) {
	var out Stats
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/stats", nil)
	if err != nil {
		return out, err
	}
	return out, c.do(req, &out)
}

// Close releases the client's idle connections. The client stays usable —
// later requests simply re-dial — so Close is about returning pooled
// sockets promptly, matching the irsnet client's surface for the unified
// client interface.
func (c *Client) Close() error {
	hc := c.HTTPClient
	if hc == nil {
		hc = sharedPooledClient
	}
	hc.CloseIdleConnections()
	return nil
}

// post marshals in, POSTs it, and decodes the 2xx body into out (or a
// non-2xx body into an *APIError).
func (c *Client) post(ctx context.Context, path string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	return c.do(req, out)
}

// sharedPooledClient answers the nil-HTTPClient fallback for Client values
// assembled without NewClient.
var sharedPooledClient = newPooledHTTPClient()

func (c *Client) do(req *http.Request, out any) error {
	hc := c.HTTPClient
	if hc == nil {
		hc = sharedPooledClient
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer func() {
		_, _ = io.Copy(io.Discard, resp.Body) // drain for connection reuse
		_ = resp.Body.Close()
	}()
	if resp.StatusCode/100 != 2 {
		return decodeAPIError(resp)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// decodeAPIError reads a non-2xx response's JSON error envelope — the
// error shape is JSON on both encodings.
func decodeAPIError(resp *http.Response) error {
	var envelope ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&envelope); err != nil || envelope.Error.Code == "" {
		return &APIError{Code: "internal", Message: "undecodable error body", Status: resp.StatusCode}
	}
	return &APIError{Code: envelope.Error.Code, Message: envelope.Error.Message, Status: resp.StatusCode}
}

// postFrame POSTs one binary request frame and reads the binary response
// body back into the caller's pooled buffer. The request frame may share
// that buffer: the transport has fully consumed the body by the time the
// response is read into it.
func (c *Client) postFrame(ctx context.Context, path string, frame []byte, buf *[]byte) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(frame))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", ContentTypeBinary)
	hc := c.HTTPClient
	if hc == nil {
		hc = sharedPooledClient
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer func() {
		_, _ = io.Copy(io.Discard, resp.Body) // drain for connection reuse
		_ = resp.Body.Close()
	}()
	if resp.StatusCode/100 != 2 {
		return nil, decodeAPIError(resp)
	}
	b, err := wire.ReadAllInto(resp.Body, (*buf)[:0])
	*buf = b
	if err != nil {
		return nil, err
	}
	return b, nil
}
