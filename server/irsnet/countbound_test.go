package irsnet_test

import (
	"context"
	"errors"
	"sync"
	"testing"

	"github.com/irsgo/irs/internal/wire"
	"github.com/irsgo/irs/server"
	"github.com/irsgo/irs/server/irsnet"
)

// TestOversizedSampleKeepsSharedConn: a sample whose answer cannot fit one
// message — past wire.MaxSampleCount, up to a count whose plain sample
// response would overflow MaxMessageBytes — is answered 400 invalid_count
// before anything is drawn. Such an answer used to reach the client as a
// response envelope longer than MaxMessageBytes, which broke the one
// connection and failed every insert in flight on it. Here inserts run
// alongside on that connection and none may fail; a sample at the bound,
// plain and with stats, still round-trips.
func TestOversizedSampleKeepsSharedConn(t *testing.T) {
	cl, _, stop := newTCPDaemon(t, server.Config{}, 1000, 11, irsnet.Options{Conns: 1})
	defer stop()
	ctx := context.Background()

	done := make(chan struct{})
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if _, err := cl.InsertKeys(ctx, "u", []float64{float64(g)}); err != nil {
					t.Errorf("insert alongside an oversized sample: %v", err)
					return
				}
			}
		}()
	}
	for _, n := range []int{wire.MaxSampleCount + 1, 1_200_000} {
		_, err := cl.Sample(ctx, "u", 0, 999, n)
		var api *server.APIError
		if !errors.As(err, &api) || api.Code != "invalid_count" || api.Status != 400 || !errors.Is(err, server.ErrInvalidCount) {
			t.Errorf("t = %d: %v, want 400 invalid_count", n, err)
		}
	}
	close(done)
	wg.Wait()

	got, err := cl.Sample(ctx, "u", 0, 999, wire.MaxSampleCount)
	if err != nil || len(got) != wire.MaxSampleCount {
		t.Fatalf("t at the bound: %d samples, %v", len(got), err)
	}
	got, count, mass, err := cl.SampleStatsAppend(ctx, "u", got[:0], 0, 999, wire.MaxSampleCount)
	if err != nil || len(got) != wire.MaxSampleCount || count < 1000 || mass != float64(count) {
		t.Fatalf("t at the bound, with stats: %d samples, (%d, %v), %v", len(got), count, mass, err)
	}
}
