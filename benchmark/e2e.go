package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/irsgo/irs/benchmark/layers"
	"github.com/irsgo/irs/benchmark/loadgen"
	"github.com/irsgo/irs/client"
	"github.com/irsgo/irs/internal/stats"
)

const (
	dataset = "bench"
	// shards is fixed at 4 rather than left at the daemons' GOMAXPROCS
	// default so the cross-shard multinomial stays on the request path on
	// hosts where a daemon gets a single P.
	shards = 4
	// coalesceWindow mirrors irsd's -coalesce-window default for the
	// in-process replay; the daemons themselves run with their defaults.
	coalesceWindow = 100 * time.Microsecond

	writeKeys   = 8   // keys per insert or delete of the mixed workload
	openWorkers = 128 // fixed worker pool behind the open-loop pacer
	loadBatch   = 32768
	warmup      = time.Second     // load before the measured window opens
	drainGrace  = 2 * time.Second // unanswered this long after the window = failed

	kindSample uint8 = 0
	kindWrite  uint8 = 1

	// The uniformity check: pooled samples of one fixed range against
	// equal-count buckets of the generated keys.
	checkBuckets  = 32
	checkRequests = 64
	checkAlpha    = 1e-4
)

// options are the run parameters every workload shares.
type options struct {
	seed     uint64
	seconds  time.Duration // measured window
	keys     int
	setups   int // set-ups timed per run; the last one is measured on
	trace    bool
	traceN   int    // requests replayed in process
	traceOut string // span file of a traced run
}

// deployment is one set-up: the daemons of a workload, loaded and ready.
type deployment struct {
	front   *daemon   // the daemon clients talk to
	data    []*daemon // the irsd processes that hold keys
	all     []*daemon // data, then the router if there is one
	args    []string  // front's arguments, to restart it on the same directory
	conn    client.Conn
	loaded  int
	setupIn float64 // seconds
}

// setUp spawns the workload's daemons, loads keys through the client API
// and waits for readiness. The clock starts at the first spawn; go build
// has already happened.
func setUp(f *fleet, w workload, keys []float64, seed uint64) (*deployment, error) {
	begin := time.Now()
	d := &deployment{}
	irsdArgs := []string{"-addr", "127.0.0.1:0", "-tcp-addr", "127.0.0.1:0", "-datasets", dataset, "-shards", strconv.Itoa(shards)}
	switch {
	case w.cluster:
		for i := 0; i < 2; i++ {
			n, err := f.start(fmt.Sprintf("irsd-node%d", i), "irsd", irsdArgs...)
			if err != nil {
				return nil, err
			}
			d.data = append(d.data, n)
		}
		split := strconv.FormatFloat(keys[len(keys)/2], 'g', -1, 64)
		d.args = []string{"-addr", "127.0.0.1:0", "-tcp-addr", "127.0.0.1:0", "-datasets", dataset,
			"-partitions", d.data[0].httpAddr + "@-inf:" + split + "," + d.data[1].httpAddr + "@" + split + ":+inf"}
		r, err := f.start("irsrouter", "irsrouter", d.args...)
		if err != nil {
			return nil, err
		}
		d.front = r
	default:
		d.args = irsdArgs
		if w.durable {
			dir, err := f.tempDir("data-*")
			if err != nil {
				return nil, err
			}
			d.args = append(d.args, "-data-dir", dir) // -fsync always is the default
		}
		n, err := f.start("irsd", "irsd", d.args...)
		if err != nil {
			return nil, err
		}
		d.front, d.data = n, []*daemon{n}
	}
	d.all = d.data
	if w.cluster {
		d.all = []*daemon{d.data[0], d.data[1], d.front}
	}

	// Keys arrive unordered, one batch after another — so a seed always
	// builds the same structure — over irsnet whatever encoding the measured
	// traffic uses: loading is not what sample_json measures.
	loader, err := client.Dial(d.front.tcpAddr, client.EncodingTCP)
	if err != nil {
		return nil, err
	}
	defer loader.Close()
	shuffled := append([]float64(nil), keys...)
	rand.New(rand.NewPCG(seed, 0x6c6f6164)).Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	ctx, cancel := context.WithTimeout(context.Background(), loadTimeout)
	defer cancel()
	for lo := 0; lo < len(shuffled); lo += loadBatch {
		batch := shuffled[lo:min(lo+loadBatch, len(shuffled))]
		n, err := loader.InsertKeys(ctx, dataset, batch)
		if err == nil && n != len(batch) {
			err = fmt.Errorf("stored %d of %d keys", n, len(batch))
		}
		if err != nil {
			return nil, fmt.Errorf("load: %w\n%s", err, d.front.logs())
		}
	}
	d.loaded = len(keys)
	if w.durable {
		if err := d.front.snapshot(dataset); err != nil {
			return nil, err
		}
	}
	for _, dm := range d.all {
		if err := dm.ready(); err != nil {
			return nil, fmt.Errorf("%s not ready after load: %w\n%s", dm.name, err, dm.logs())
		}
	}
	d.setupIn = time.Since(begin).Seconds()
	addr := d.front.httpAddr
	if w.encoding == client.EncodingTCP {
		addr = d.front.tcpAddr
	}
	if d.conn, err = client.Dial(addr, w.encoding); err != nil {
		return nil, err
	}
	return d, nil
}

// datasetLen reads the dataset's length through the client API.
func datasetLen(conn client.Conn) (int, error) {
	ctx, cancel := context.WithTimeout(context.Background(), callTimeout)
	defer cancel()
	st, err := conn.Stats(ctx)
	if err != nil {
		return 0, err
	}
	for _, ds := range st.Datasets {
		if ds.Name == dataset {
			return ds.Len, nil
		}
	}
	return 0, fmt.Errorf("stats: no dataset %q", dataset)
}

// checkSample reports whether a response has exactly t keys, all inside
// the requested range.
func checkSample(out []float64, q loadgen.Query) bool {
	if len(out) != q.T {
		return false
	}
	for _, k := range out {
		if !(k >= q.Lo && k <= q.Hi) {
			return false
		}
	}
	return true
}

// checkUniform pools samples of one fixed range — the middle half of the
// keys by rank — and tests them against equal-count buckets of the
// generated keys: every bucket holds the same number of stored keys, so
// an exact sampler fills them uniformly.
func checkUniform(conn client.Conn, keys []float64, t int) error {
	from, per := len(keys)/4, len(keys)/2/checkBuckets
	lo, hi := keys[from], keys[from+per*checkBuckets-1]
	edges := make([]float64, checkBuckets) // last key of each bucket
	for b := range edges {
		edges[b] = keys[from+per*(b+1)-1]
	}
	counts := make([]int, checkBuckets)
	ctx, cancel := context.WithTimeout(context.Background(), callTimeout)
	defer cancel()
	q := loadgen.Query{Lo: lo, Hi: hi, T: max(t, 256)}
	for i := 0; i < checkRequests; i++ {
		out, err := conn.Sample(ctx, dataset, q.Lo, q.Hi, q.T)
		if err != nil {
			return fmt.Errorf("uniformity check: %w", err)
		}
		if !checkSample(out, q) {
			return fmt.Errorf("uniformity check: response has %d keys for t=%d or a key outside [%v, %v]", len(out), q.T, lo, hi)
		}
		for _, k := range out {
			counts[sort.SearchFloat64s(edges, k)]++
		}
	}
	stat, df, err := stats.ChiSquareUniform(counts)
	if err != nil {
		return fmt.Errorf("uniformity check: %w", err)
	}
	if critical := stats.ChiSquareCritical(df, checkAlpha); stat > critical {
		return fmt.Errorf("uniformity check: chi-square %.1f exceeds %.1f (df %d, alpha %g): samples of [%v, %v] are not uniform over the stored keys", stat, critical, df, checkAlpha, lo, hi)
	}
	return nil
}

// cpuTime is CPU consumed by one or more daemons since they started.
type cpuTime struct {
	user, sys time.Duration // tick resolution
	run       time.Duration // on-CPU time, nanosecond resolution where the kernel keeps it
}

// mark is what the controller reads at one slice edge of the window.
type mark struct {
	at   time.Duration // offset from the timeline's start
	cpu  cpuTime       // summed over the deployment's daemons
	self time.Duration // the generator's own CPU
}

func (d *deployment) mark(start time.Time) (mark, error) {
	m := mark{at: time.Since(start), self: selfCPU()}
	if procMetrics {
		for _, dm := range d.all {
			c, err := procCPU(dm.pid())
			if err != nil {
				return m, fmt.Errorf("%s: %w", dm.name, err)
			}
			m.cpu.user, m.cpu.sys, m.cpu.run = m.cpu.user+c.user, m.cpu.sys+c.sys, m.cpu.run+c.run
		}
	}
	return m, nil
}

// scrape reads /metrics of every daemon of the deployment.
func (d *deployment) scrape() ([]loadgen.Metrics, error) {
	var out []loadgen.Metrics
	for _, dm := range d.all {
		s, err := dm.scrape()
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// slice is the length of the pieces the measured window is cut into.
// Every end-to-end rate and percentile is computed per slice, and a run
// reports the slice at the quartile on the quiet side: the lower quartile
// of a lower-is-better metric, the upper quartile of throughput. On a
// shared host a neighbour's burst only ever slows a second down, so the
// quiet quartile holds still as long as a quarter of the window was
// undisturbed, where the whole-window figure moved by 10-40% between
// identical runs.
const slice = time.Second

// drive is the measured part of a run: the records of every request, a
// mark at every slice edge of the window, and a scrape on either side.
type drive struct {
	records       []loadgen.Record
	lag           []time.Duration   // open loop only: pacer lag of arrival i, beside records[i]
	marks         []mark            // len = slices+1; the window is [marks[0].at, marks[last].at)
	before, after []loadgen.Metrics // per daemon of deployment.all
	inserted      int64             // acknowledged keys over the whole run, warm-up included
	deleted       int64
}

// run drives w against d: warm-up, then the window, a mark at every slice edge.
func (d *deployment) run(w workload, opt options, keys []float64) (*drive, error) {
	ranges := w.ranges(opt.seed, keys)
	clock := loadgen.RealClock{}
	out := &drive{}
	var ins, del atomic.Int64
	bufs := sync.Pool{New: func() any { b := make([]float64, 0, w.t); return &b }}
	sample := func(ctx context.Context, i int) bool {
		q := ranges.At(uint64(i))
		bp := bufs.Get().(*[]float64)
		got, err := d.conn.SampleAppend(ctx, dataset, (*bp)[:0], q.Lo, q.Hi, q.T)
		ok := err == nil && checkSample(got, q)
		*bp = got
		bufs.Put(bp)
		return ok
	}

	start := time.Now().Add(50 * time.Millisecond)
	total := warmup + opt.seconds + 200*time.Millisecond
	done := make(chan struct{})
	var stop atomic.Bool
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if w.open {
		schedule := loadgen.Poisson(opt.seed, float64(w.rate), total)
		go func() {
			defer close(done)
			res := loadgen.OpenLoop(clock, start, schedule, openWorkers, drainGrace, func(ctx context.Context, i int) (uint8, bool) {
				return kindSample, sample(ctx, i)
			})
			out.records, out.lag = res.Records, res.Lag
		}()
	} else {
		// Each caller of the durable workload owns a lane of fresh keys: 3
		// samples, then a write that alternates an insert of 8 new keys
		// with a delete of its 8 oldest, so n stays level.
		type lane struct {
			rng    *rand.Rand
			own    []float64
			seq    int
			insert bool
		}
		lanes := make([]lane, w.callers)
		for c := range lanes {
			lanes[c] = lane{rng: rand.New(rand.NewPCG(opt.seed, 0x77726974<<8|uint64(c))), insert: true}
		}
		go func() {
			defer close(done)
			clock.SleepUntil(start)
			per := loadgen.ClosedLoop(ctx, clock, start, w.callers, &stop, func(ctx context.Context, c, i int) (uint8, bool) {
				l := &lanes[c]
				l.seq++
				if !w.durable || l.seq%4 != 0 {
					return kindSample, sample(ctx, i)
				}
				if l.insert || len(l.own) < writeKeys {
					fresh := make([]float64, writeKeys)
					for j := range fresh {
						fresh[j] = l.rng.Float64() * loadgen.KeySpan
					}
					n, err := d.conn.InsertKeys(ctx, dataset, fresh)
					ins.Add(int64(n))
					l.own = append(l.own, fresh[:n]...)
					l.insert = false
					return kindWrite, err == nil && n == writeKeys
				}
				n, err := d.conn.Delete(ctx, dataset, l.own[:writeKeys])
				del.Add(int64(n))
				l.own = l.own[writeKeys:]
				l.insert = true
				return kindWrite, err == nil && n == writeKeys
			})
			for _, recs := range per {
				out.records = append(out.records, recs...)
			}
		}()
	}

	// The controller. Scrapes sit just outside the window — every metric
	// taken from them is a ratio of counter movements, which a few extra
	// milliseconds of the same traffic do not move — and the cheap /proc
	// reads sit exactly on the slice edges.
	control := func() (err error) {
		clock.SleepUntil(start.Add(warmup - 50*time.Millisecond))
		if out.before, err = d.scrape(); err != nil {
			return err
		}
		for k := 0; k <= int(opt.seconds/slice); k++ {
			clock.SleepUntil(start.Add(warmup + time.Duration(k)*slice))
			m, err := d.mark(start)
			if err != nil {
				return err
			}
			out.marks = append(out.marks, m)
		}
		out.after, err = d.scrape()
		return err
	}
	err := control()
	stop.Store(true)
	if err != nil {
		cancel()
		<-done
		return nil, err
	}
	timer := time.AfterFunc(drainGrace, cancel) // closed loop: in-flight requests get the same grace
	<-done
	timer.Stop()
	out.inserted, out.deleted = ins.Load(), del.Load()
	return out, nil
}

// runWorkload is one complete run of w: set-up (several times, timed),
// checks, the drive, the post-run checks, and the traced replay when asked.
func runWorkload(f *fleet, w workload, opt options) (*result, error) {
	keys := loadgen.Keys(opt.seed, opt.keys)
	res := newResult(w.name, opt.seed)
	var d *deployment
	var setups []float64
	for s := 0; s < opt.setups; s++ {
		if d != nil {
			_ = d.conn.Close()
			if err := f.stopAll(true); err != nil {
				return nil, err
			}
		}
		var err error
		if d, err = setUp(f, w, keys, opt.seed); err != nil {
			return nil, err
		}
		setups = append(setups, d.setupIn)
	}
	_, setup, _ := quartiles(setups)
	res.setE2E("setup_s", setup)

	if err := checkUniform(d.conn, keys, w.t); err != nil {
		res.fail(err.Error())
	}
	dr, err := d.run(w, opt, keys)
	if err != nil {
		return nil, err
	}
	res.measure(w, d, dr)

	want := d.loaded + int(dr.inserted) - int(dr.deleted)
	got, err := datasetLen(d.conn)
	switch {
	case err != nil:
		res.fail("len check: " + err.Error())
	case got != want:
		res.fail(fmt.Sprintf("len check: dataset holds %d keys, want %d (loaded %d + inserted %d - deleted %d)", got, want, d.loaded, dr.inserted, dr.deleted))
	}
	if w.durable {
		if err := d.crashAndRecover(f, res, want); err != nil {
			return nil, err
		}
	}
	_ = d.conn.Close()
	if err := f.stopAll(true); err != nil {
		return nil, err
	}

	res.finish()
	if opt.trace {
		if err := traceReplay(f, w, opt, keys, res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// crashAndRecover SIGKILLs the durable daemon, restarts it on the same
// directory and requires the recovered length to match exactly. This is a
// process crash only: the operating system's page cache survives a kill,
// so it does not show that the fsyncs reached the device.
func (d *deployment) crashAndRecover(f *fleet, res *result, want int) error {
	killed := time.Now()
	if err := d.front.stop(false); err != nil {
		return err
	}
	again, err := f.start("irsd-recovered", "irsd", d.args...)
	if err != nil {
		return err
	}
	conn, err := client.Dial(again.tcpAddr, client.EncodingTCP)
	if err != nil {
		return err
	}
	defer conn.Close()
	got, err := datasetLen(conn)
	res.setE2E("recovery_s", time.Since(killed).Seconds())
	switch {
	case err != nil:
		res.fail("recovery check: " + err.Error() + "\n" + again.logs())
	case got != want:
		res.fail(fmt.Sprintf("recovery check: %d keys after kill -9 and restart, want %d\n%s", got, want, again.logs()))
	}
	return nil
}

// traceReplay runs the in-process replay of the workload's first requests
// and folds its per-layer metrics into res.
func traceReplay(f *fleet, w workload, opt options, keys []float64, res *result) error {
	dir, err := f.tempDir("trace-*")
	if err != nil {
		return err
	}
	ranges := w.ranges(opt.seed, keys)
	queries := make([]loadgen.Query, opt.traceN)
	for i := range queries {
		queries[i] = ranges.At(uint64(i))
	}
	tr, err := layers.Run(layers.Config{
		Workload: w.name, Seed: opt.seed, Root: w.root, Keys: keys, Queries: queries,
		Shards: shards, Window: coalesceWindow, Dir: dir,
	})
	if err != nil {
		return err
	}
	for name, v := range tr.Metrics {
		res.setLayer(name, v)
	}
	// What the in-process chain does not explain of the real request:
	// process boundary, kernel, scheduler, and queueing under load.
	res.setLayer("trace.unattributed_us", res.E2E["lat_p50_us"].Value-tr.Metrics["trace.total_us"])
	return tr.File.Write(opt.traceOut)
}
