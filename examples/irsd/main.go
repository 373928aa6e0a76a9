// irsd end to end: the serving layer as a client sees it. The demo drives
// a live irsd daemon through the typed Go client — inserts a key
// population, fires bursts of concurrent sample queries (which the daemon
// coalesces into shared backend SampleMany calls whenever they queue up
// behind busy flushers), deletes a slice of the keys, and reads the serving
// stats back to show the coalescing ratio — 1.0x when every request found a
// flusher idle and was served at once, higher the more the daemon was
// saturated.
//
// By default it self-hosts: an in-process daemon on a kernel-assigned
// port, so the example is a one-command run. Point it at an external
// daemon instead with -addr (this is how CI smoke-tests the built binary):
//
//	go run ./examples/irsd                      # self-hosted
//	irsd -addr 127.0.0.1:0 -datasets demo &     # then:
//	go run ./examples/irsd -addr http://127.0.0.1:<port>
//	go run ./examples/irsd -binary              # compact binary frames
//
// With -binary the data calls go through client.Dial's binary encoding —
// every insert, sample, delete, and stats request travels as a binary frame
// (Content-Type: application/x-irs-bin) instead of JSON; results are
// identical, the codec is just cheaper. The snapshot call stays JSON.
//
// The process exits non-zero on any protocol or correctness failure, so it
// doubles as a smoke check.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	irs "github.com/irsgo/irs"
	"github.com/irsgo/irs/client"
	"github.com/irsgo/irs/server"
)

func main() {
	var (
		addr      = flag.String("addr", "", "base URL of a running daemon; empty self-hosts one in-process")
		n         = flag.Int("n", 2000, "keys to insert")
		clients   = flag.Int("clients", 16, "concurrent sampling clients")
		reqs      = flag.Int("requests", 50, "sample requests per client")
		verifyLen = flag.Int("verify-len", -1, "verify-only mode: assert the sole dataset holds exactly this many keys, then exit (CI crash-recovery check)")
		snapshot  = flag.Bool("snapshot", false, "trigger a /snapshot after the insert phase (durable daemons)")
		binary    = flag.Bool("binary", false, "send the data calls as compact binary frames instead of JSON")
	)
	flag.Parse()
	log.SetFlags(0)

	base := *addr
	if *verifyLen >= 0 && base == "" {
		log.Fatal("-verify-len needs -addr: it checks the state of an external daemon")
	}
	if base == "" {
		var stop func()
		var err error
		base, stop, err = selfHost()
		if err != nil {
			log.Fatalf("irsd example: %v", err)
		}
		defer stop()
		fmt.Printf("self-hosted daemon on %s\n", base)
	}
	admin := server.NewClient(base)
	var cl client.Conn = admin
	if *binary {
		var err error
		if cl, err = client.Dial(base, client.EncodingBinary); err != nil {
			log.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	// Verify-only mode: the CI crash-recovery smoke restarts a durable
	// daemon and asserts the key population survived, without mutating it.
	if *verifyLen >= 0 {
		st, err := cl.Stats(ctx)
		if err != nil || len(st.Datasets) == 0 {
			log.Fatalf("verify: stats: %+v err=%v", st, err)
		}
		d := st.Datasets[0]
		if d.Len != *verifyLen {
			log.Fatalf("verify: dataset %q holds %d keys, want %d", d.Name, d.Len, *verifyLen)
		}
		if d.Durable && d.Persist != nil {
			fmt.Printf("verified %q: len=%d (durable; recovery: snapshot seq %d with %d items, %d WAL records replayed, torn=%v)\n",
				d.Name, d.Len, d.Persist.Recovery.SnapshotSeq, d.Persist.Recovery.SnapshotEntries,
				d.Persist.Recovery.RecordsReplayed, d.Persist.Recovery.TornTail)
		} else {
			fmt.Printf("verified %q: len=%d\n", d.Name, d.Len)
		}
		fmt.Println("ok")
		return
	}

	// 1. Ingest: one batch of n keys 0..n-1 through /insert.
	keys := make([]float64, *n)
	for i := range keys {
		keys[i] = float64(i)
	}
	inserted, err := cl.InsertKeys(ctx, "", keys)
	if err != nil || inserted != *n {
		log.Fatalf("insert: inserted=%d err=%v", inserted, err)
	}
	fmt.Printf("inserted %d keys\n", inserted)

	// Optionally checkpoint the population: on a durable daemon this
	// serializes a snapshot and compacts the WAL it covers.
	if *snapshot {
		snap, err := admin.Snapshot(ctx, "")
		if err != nil || snap.Items != *n {
			log.Fatalf("snapshot: %+v err=%v", snap, err)
		}
		fmt.Printf("snapshot: %d items, wal seq %d compacted\n", snap.Items, snap.Seq)
	}

	// 2. One warm-up query, checked for shape.
	lo, hi := float64(*n/4), float64(3**n/4)
	samples, err := cl.Sample(ctx, "", lo, hi, 5)
	if err != nil || len(samples) != 5 {
		log.Fatalf("sample: got %v err=%v", samples, err)
	}
	for _, s := range samples {
		if s < lo || s > hi {
			log.Fatalf("sample %g outside [%g, %g]", s, lo, hi)
		}
	}
	fmt.Printf("warm-up sample of [%g, %g]: %v\n", lo, hi, samples)

	// 3. The point of the daemon: concurrent independent clients, whose
	// requests share SampleMany batches server-side once they outrun the
	// flushers and are answered at once, unbatched, while they do not.
	var wg sync.WaitGroup
	var served, rejected atomic.Int64
	start := time.Now()
	for g := 0; g < *clients; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < *reqs; i++ {
				out, err := cl.Sample(ctx, "", lo, hi, 8)
				switch {
				case errors.Is(err, server.ErrOverloaded):
					rejected.Add(1) // backpressure is a valid answer
				case err != nil:
					log.Fatalf("concurrent sample: %v", err)
				case len(out) != 8:
					log.Fatalf("concurrent sample: %d samples", len(out))
				default:
					served.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	fmt.Printf("%d clients x %d requests in %v (%d served, %d backpressured)\n",
		*clients, *reqs, time.Since(start).Round(time.Millisecond), served.Load(), rejected.Load())

	// 4. Retire a slice of the population.
	removed, err := cl.Delete(ctx, "", keys[:*n/10])
	if err != nil || removed != *n/10 {
		log.Fatalf("delete: removed=%d err=%v", removed, err)
	}
	fmt.Printf("deleted %d keys\n", removed)

	// 5. Serving stats: how many backend calls served how many requests.
	st, err := cl.Stats(ctx)
	if err != nil || len(st.Datasets) == 0 {
		log.Fatalf("stats: %+v err=%v", st, err)
	}
	for _, d := range st.Datasets {
		ratio := float64(d.SampleRequests) / float64(max(d.SampleBatches, 1))
		fmt.Printf("dataset %q (%s): len=%d shards=%d — %d sample requests in %d backend batches (%.1fx coalescing, max batch %d)\n",
			d.Name, d.Kind, d.Len, d.Shards, d.SampleRequests, d.SampleBatches, ratio, d.MaxCoalesced)
	}
	fmt.Println("ok")
}

// selfHost starts an in-process daemon with one empty unweighted dataset
// on a kernel-assigned port, returning its base URL and a stop function.
func selfHost() (string, func(), error) {
	s := server.New(server.Config{})
	if err := s.AddUnweighted("demo", irs.NewConcurrentSeeded[float64](8, 42)); err != nil {
		return "", nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	httpSrv := &http.Server{Handler: s}
	go func() { _ = httpSrv.Serve(ln) }()
	stop := func() {
		_ = httpSrv.Close()
		s.Close()
	}
	return "http://" + ln.Addr().String(), stop, nil
}
