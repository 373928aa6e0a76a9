package shard

import "github.com/irsgo/irs/internal/xrand"

// NewStream returns a fresh sampling RNG derived deterministically from the
// structure's seed: the i-th call overall (counted atomically across all
// goroutines) returns the i-th stream of a fixed sequence. It is the RNG
// factory for consumers that own a structure but not a seed — the serving
// layer draws the per-batch RNGs of its coalesced SampleMany calls from it —
// and distinct calls always yield independent streams.
//
// Reproducibility contract: two structures constructed with the same seed
// hand out identical stream sequences, so a caller that consumes streams
// and issues queries in a deterministic order replays sampling
// bit-for-bit. Under concurrency the i-th stream goes to whichever caller
// arrives i-th — the streams themselves are unchanged, but exact replay
// then additionally requires pinning that assignment (the serving layer,
// whose flush workers each draw one stream, is exactly reproducible only
// with a single flusher). The seed (and therefore NewStream) never
// influences any sampling distribution — every stream is uniform
// regardless of seed.
func (c *engine[K, I, B]) NewStream() *xrand.RNG {
	return xrand.New(xrand.StreamSeed(c.streamSeed, c.streamCtr.Add(1)))
}
