// Package irsnet is irsd's persistent multiplexed TCP transport: the
// binary frames of internal/wire — the same frames the HTTP layer accepts
// as application/x-irs-bin — carried over long-lived connections with
// pipelined request IDs and out-of-order responses. It is a carrier only:
// package server's dispatcher (Server.ServeFrame) answers every frame, and
// its frame client (server.FrameClient) encodes every request.
//
// HTTP/1.1 sequences requests per connection: a coalesced flush that takes
// 200µs holds the connection for every queued caller behind it, and the
// transport adds headers, chunking, and connection-pool churn around each
// ~30-byte frame. This transport removes all of that. A client writes any
// number of requests down one connection without waiting; the server
// hands each one to the dispatcher the moment it is read (the reader never
// parks behind a flush), and responses return whenever their flush
// completes, matched by ID. One connection therefore carries an entire
// concurrency-N workload, and — because concurrent requests on one
// connection arrive back to back at the reader — it feeds the coalescer
// larger batches than N parallel HTTP connections ever could.
//
// # Protocol
//
// All integers little-endian. One message per request and exactly one per
// response; IDs are chosen by the client and opaque to the server
// (uniqueness per connection is the client's responsibility — responses
// carry whatever ID the request did). Length fields count the bytes that
// follow them.
//
//	request  message:  u32 len | u64 id | frame
//	response message:  u32 len | u64 id | u8 status | payload
//
// The frame is exactly one binary request frame of any kind listed in the
// internal/wire package comment. A status byte of 0 means the payload is
// that request's binary response frame; 1 means it is the error payload
//
//	u16 http_status | u8 len(code) | code | u16 len(msg) | msg
//
// carrying the same code/status vocabulary as the HTTP JSON error
// envelope, so the typed client surfaces identical errors (errors.Is
// against the server package's sentinels works over either transport).
//
// Malformed frames inside a well-formed message are answered per request
// with code bad_request, exactly like HTTP. A malformed message envelope
// (length below the 9-byte minimum or above MaxMessageBytes) is
// unrecoverable — the stream has lost sync — so the server drops the
// connection.
//
// # Shutdown
//
// Server.Shutdown stops the listener, unblocks every connection's reader,
// waits for in-flight requests to be answered and written, then closes
// the connections — the same drain contract as http.Server.Shutdown plus
// the serving core's Close.
package irsnet

import "errors"

const (
	// reqHeaderSize is the fixed prefix of a request message
	// (u32 len + u64 id).
	reqHeaderSize = 12

	// statusOK and statusErr are the response status byte.
	statusOK  = 0x00
	statusErr = 0x01

	// minRequestLen is the smallest valid request length field: the 8-byte
	// ID plus at least one frame byte.
	minRequestLen = 8 + 1
	// minResponseLen is the smallest valid response length field: the
	// 8-byte ID plus the status byte.
	minResponseLen = 8 + 1
	// respHeaderSize is the fixed prefix of a response message
	// (u32 len + u64 id + u8 status).
	respHeaderSize = 4 + minResponseLen
)

// MaxMessageBytes bounds a message's length field (the bytes after it) on
// both sides, mirroring the HTTP layer's request-body bound: a
// megabyte-scale insert batch is the intended granularity, anything larger
// should arrive as several requests.
const MaxMessageBytes = 8 << 20

// ErrClosed is returned by client calls after Close, and wrapped into the
// failure of calls in flight when their connection breaks.
var ErrClosed = errors.New("irsnet: client closed")
