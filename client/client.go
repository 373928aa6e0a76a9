// Package client is the transport-agnostic client surface of the irsd
// protocol family. Three encodings reach a daemon — HTTP/JSON, HTTP binary
// frames, and the persistent multiplexed TCP transport (irsnet) — and two
// typed clients implement them: server.Client (JSON) and server.FrameClient
// (the binary frames, over HTTP or, as irsnet.Client, over irsnet). This
// package names the shared surface as interfaces and provides Dial, so
// code that talks to a node — the cluster router above all — depends on
// the interface and never on a transport. A daemon's HTTP address speaks
// irsnet too, so one address serves every encoding.
//
// Every concrete client satisfies Conn (compile-time assertions below),
// with one error contract: server-side failures arrive as *server.APIError and
// unwrap to the server sentinels, so errors.Is(err, server.ErrOverloaded)
// answers identically no matter which wire the request took.
package client

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"github.com/irsgo/irs/server"
	"github.com/irsgo/irs/server/irsnet"
)

// Item is one insert/update element, re-exported so callers of the
// interfaces need not import package server for the carrier type.
type Item = server.Item

// Stats is the /stats document, re-exported for the same reason.
type Stats = server.Stats

// Sampler is the read surface: range sampling, sampling together with the
// range's (count, mass) — what the cluster router's multinomial split is
// built on — and the (count, mass) range probe alone.
type Sampler interface {
	// Sample requests t independent samples from [lo, hi] of dataset
	// (empty selects the daemon's sole dataset).
	Sample(ctx context.Context, dataset string, lo, hi float64, t int) ([]float64, error)
	// SampleAppend is Sample appending into dst; on error dst is returned
	// unchanged.
	SampleAppend(ctx context.Context, dataset string, dst []float64, lo, hi float64, t int) ([]float64, error)
	// SampleStatsAppend is SampleAppend that also returns [lo, hi]'s
	// in-range key count and sampling mass, read under the same locks as
	// the samples — the cluster router's one round trip per node. A range
	// without sampling mass answers no samples and mass 0, not
	// ErrEmptyRange.
	SampleStatsAppend(ctx context.Context, dataset string, dst []float64, lo, hi float64, t int) ([]float64, int, float64, error)
	// RangeStats returns the in-range key count and sampling mass of
	// [lo, hi].
	RangeStats(ctx context.Context, dataset string, lo, hi float64) (int, float64, error)
}

// Mutator is the write surface.
type Mutator interface {
	// InsertKeys stores keys with unit weight, returning how many were
	// stored.
	InsertKeys(ctx context.Context, dataset string, keys []float64) (int, error)
	// InsertItems stores weighted items, returning how many were stored.
	InsertItems(ctx context.Context, dataset string, items []Item) (int, error)
	// Delete removes one occurrence of each key, returning how many were
	// present and removed.
	Delete(ctx context.Context, dataset string, keys []float64) (int, error)
	// Update sets the weight of one occurrence of each item's key on a
	// weighted dataset, returning how many keys were present and
	// re-weighted.
	Update(ctx context.Context, dataset string, items []Item) (int, error)
}

// Conn is a full client session with one daemon: sampling, mutation,
// stats, and teardown.
type Conn interface {
	Sampler
	Mutator
	// Stats fetches the serving snapshot of every dataset.
	Stats(ctx context.Context) (Stats, error)
	// Close releases the session's connections. The implementations
	// tolerate further use after Close to the extent their transport does;
	// treat a closed Conn as done.
	Close() error
}

// Every concrete client must satisfy the full surface — this is the
// compile-time contract the router and the benchmark rely on.
var (
	_ Conn = (*server.Client)(nil)
	_ Conn = (*server.FrameClient)(nil)
	_ Conn = (*irsnet.Client)(nil)
)

// Encodings accepted by Dial — the vocabulary of the benchmark's workload
// table; irsrouter dials its nodes with EncodingTCP.
const (
	EncodingJSON   = "json"   // HTTP, JSON bodies
	EncodingBinary = "binary" // HTTP, compact binary frames
	EncodingTCP    = "tcp"    // persistent multiplexed TCP (irsnet)
)

// ErrUnknownEncoding rejects Dial encodings outside json/binary/tcp.
var ErrUnknownEncoding = errors.New("client: unknown encoding")

// Dial returns a Conn for the daemon at addr speaking the given encoding.
// For the HTTP encodings addr may be a base URL ("http://host:port") or a
// bare host:port (http is assumed); for tcp it is the daemon's HTTP
// address or its -tcp-addr, as a host:port (a leading scheme is
// stripped). No connection is made until the first
// request on any encoding, so Dial itself cannot observe a down node.
func Dial(addr, encoding string) (Conn, error) {
	switch encoding {
	case EncodingJSON, EncodingBinary:
		base := addr
		if !strings.Contains(base, "://") {
			base = "http://" + base
		}
		if encoding == EncodingBinary {
			return server.NewBinaryClient(base), nil
		}
		return server.NewClient(base), nil
	case EncodingTCP:
		host := addr
		if i := strings.Index(host, "://"); i >= 0 {
			host = host[i+3:]
		}
		return irsnet.NewClient(host, irsnet.Options{}), nil
	default:
		return nil, fmt.Errorf("%w: %q (want %s, %s, or %s)", ErrUnknownEncoding, encoding, EncodingJSON, EncodingBinary, EncodingTCP)
	}
}
