package cluster_test

import (
	"context"
	"sync"
	"testing"

	irs "github.com/irsgo/irs"
	"github.com/irsgo/irs/client"
	"github.com/irsgo/irs/internal/cluster"
)

// memConn is an in-process node holding the integer keys [lo, hi): the
// read half of client.Conn with no wire, no codec and no allocation of its
// own, so a benchmark over it measures the router and nothing else. It
// appends into dst in place, as both real clients do.
type memConn struct {
	client.Conn // the rest of the surface is not reached
	lo, hi      float64

	mu  sync.Mutex
	rng *irs.RNG
}

func (c *memConn) clip(lo, hi float64) (float64, float64) {
	return max(lo, c.lo), min(hi, c.hi-1)
}

func (c *memConn) RangeStats(_ context.Context, _ string, lo, hi float64) (int, float64, error) {
	lo, hi = c.clip(lo, hi)
	n := max(0, int(hi)-int(lo)+1)
	return n, float64(n), nil
}

func (c *memConn) SampleAppend(ctx context.Context, name string, dst []float64, lo, hi float64, t int) ([]float64, error) {
	dst, _, _, err := c.SampleStatsAppend(ctx, name, dst, lo, hi, t)
	return dst, err
}

// SampleStatsAppend reads the clip's (count, mass) and draws under one
// hold of the mutex, as a node reads both under one set of shard locks.
func (c *memConn) SampleStatsAppend(_ context.Context, _ string, dst []float64, lo, hi float64, t int) ([]float64, int, float64, error) {
	lo, hi = c.clip(lo, hi)
	c.mu.Lock()
	defer c.mu.Unlock()
	n := max(0, int(hi)-int(lo)+1)
	for ; n > 0 && t > 0; t-- {
		dst = append(dst, float64(c.rng.IntRange(int(lo), int(hi))))
	}
	return dst, n, float64(n), nil
}

func (c *memConn) Close() error { return nil }

// BenchmarkRouterSpanningSample is one t = 64 request spanning all three
// partitions of an in-process cluster: one fan-out in which every node
// answers its clip's samples with the clip's (count, mass), the
// multinomial split over those masses, scatter. Read it with -benchmem:
// what is left in allocs/op is that fan-out's goroutines and error slice —
// the split stage and the pooled sample blocks contribute none.
func BenchmarkRouterSpanningSample(b *testing.B) {
	m, err := cluster.New([]cluster.Partition{
		{Addr: "a", Lo: 0, Hi: 1000}, {Addr: "b", Lo: 1000, Hi: 2000}, {Addr: "c", Lo: 2000, Hi: 3000},
	})
	if err != nil {
		b.Fatal(err)
	}
	conns := make([]client.Conn, m.Len())
	for i := range conns {
		p := m.At(i)
		conns[i] = &memConn{lo: p.Lo, hi: p.Hi, rng: irs.NewRNG(uint64(i))}
	}
	router, err := cluster.NewRouter(m, conns, cluster.Options{Datasets: []string{"d"}, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer router.Close()
	dst := make([]float64, 0, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := router.SampleAppend("d", dst[:0], 500, 2500, 64)
		if err != nil || len(out) != 64 {
			b.Fatalf("%d samples, err %v", len(out), err)
		}
	}
}
