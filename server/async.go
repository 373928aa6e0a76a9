package server

import (
	srv "github.com/irsgo/irs/internal/server"
)

// SampleReply and InsertReply receive the answers of SampleAsync and
// InsertAsync, under the contract stated at Backend. Deliver runs on a
// serving-core flusher goroutine and must not block for long — it is
// inside the flush loop that answers every other coalesced request in the
// batch. Implementations meant for hot paths should be pooled
// pointer-structs: a pointer already on the heap boxes into the interface
// without allocating, which is how the TCP transport keeps its per-request
// path allocation-free.
type (
	SampleReply = srv.Reply[[]float64]
	InsertReply = srv.Reply[int]
)

// SampleAsync submits a sample request without blocking for the coalesced
// flush: the samples — appended to dst, which may be nil — or the error
// arrive through done. This is the submission surface for transports that
// multiplex many requests over one connection, where the connection's
// reader goroutine must never park behind a flush.
func (s *Server) SampleAsync(dataset string, dst []float64, lo, hi float64, t int, done SampleReply) error {
	return s.backend.SampleAppendAsync(dataset, dst, lo, hi, t, done)
}

// InsertAsync submits an insert without blocking for the coalesced flush.
// The items slice must stay unmutated until done is invoked.
func (s *Server) InsertAsync(dataset string, items []Item, done InsertReply) error {
	return s.backend.InsertAsync(dataset, items, done)
}
