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
// # One port
//
// The protocol has no preface: a daemon serves it on its HTTP port too,
// telling the two apart by each connection's first four bytes (Sniff), so
// a client dials the HTTP address or a dedicated irsnet listener alike.
//
// # Shutdown
//
// Server.Shutdown stops the listeners, unblocks every connection's reader,
// waits for in-flight requests to be answered and written, then closes
// the connections — the same drain contract as http.Server.Shutdown plus
// the serving core's Close.
package irsnet

import (
	"errors"

	"github.com/irsgo/irs/internal/wire"
)

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
// both sides: the bound every carrier shares, so the largest response —
// a sample of wire.MaxSampleCount, the most the dispatcher accepts — fits.
const MaxMessageBytes = wire.MaxMessageBytes

// The largest response — ID, status, and a sample-with-stats frame of
// wire.MaxSampleCount samples — fits one message; this fails to compile
// if it ever stops fitting.
const _ = uint(MaxMessageBytes - minResponseLen - (8 + 8 + 4 + 8*wire.MaxSampleCount))

// The sniff below relies on a request's length field never reaching 2^24;
// this fails to compile if MaxMessageBytes ever allows it.
const _ = uint(1<<24 - 1 - MaxMessageBytes)

// Sniff reports whether a connection whose first bytes are head carries
// irsnet rather than HTTP, so one listener can serve both. Every valid
// request message opens with its u32 little-endian length, at most
// MaxMessageBytes < 2^24, so its fourth byte is 0; no HTTP/1.x request line
// and no HTTP/2 connection preface contains a NUL byte. Fewer than four
// bytes is not irsnet.
func Sniff(head []byte) bool { return len(head) >= 4 && head[3] == 0 }

// ErrClosed is returned by client calls after Close, and wrapped into the
// failure of calls in flight when their connection breaks.
var ErrClosed = errors.New("irsnet: client closed")
