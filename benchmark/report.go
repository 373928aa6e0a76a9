package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"time"

	"github.com/irsgo/irs/benchmark/loadgen"
	"github.com/irsgo/irs/client"
)

// metric is one reported value. Values keep every digit measured.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// units names every metric the benchmark can report and its unit. A
// metric missing here is a bug, caught when it is first set.
var units = map[string]string{
	// End to end.
	"setup_s": "s", "lat_p50_us": "us", "lat_p90_us": "us", "throughput_rps": "1/s",
	"server_cpu_us_per_req": "us", "rss_mb": "MiB", "fail_ratio": "ratio",
	"write_lat_p50_us": "us", "write_lat_p90_us": "us", "write_keys_per_s": "1/s", "recovery_s": "s",
	// Per layer, from counter movements over the window.
	"coalescer.sample_batch_mean": "req/call", "coalescer.insert_batch_mean": "req/call", "coalescer.rejected": "count",
	"front.server_time_mean_us": "us", "irsnet.server_time_mean_us": "us", "http.server_time_mean_us": "us",
	"client.outside_server_mean_us": "us",
	"persist.fsyncs_per_record":     "ratio", "persist.records_per_write_req": "ratio", "persist.wal_bytes_per_key": "B",
	"cluster.node_calls_per_req": "ratio", "cluster.node_time_mean_us": "us", "cluster.router_time_mean_us": "us",
	"irsd.cpu_user_share": "ratio",
	"loadgen.lag_p50_us":  "us", "loadgen.lag_p99_us": "us", "loadgen.cpu_s": "s",
	// Per layer, from the in-process traced replay.
	"shard.draw_us": "us", "shard.draw_ns_per_sample": "ns", "weighted.draw_ns_per_sample": "ns",
	"shard.insert_us_per_key": "us", "shard.delete_us_per_key": "us", "coalescer.self_us": "us",
	"wire.bin_codec_us": "us", "wire.json_codec_us": "us", "persist.stage_us": "us", "persist.wait_durable_us": "us",
	"irsnet.self_us": "us", "http.self_us": "us", "cluster.self_us": "us", "cluster.node_us": "us",
	"trace.total_us": "us", "trace.unattributed_us": "us", "trace.overhead_pct": "%",
}

// lagLimit is the generator-health gate: a run whose pacer ran later than
// this at p99 did not offer the load it claims.
const lagLimit = 1000 * time.Microsecond

// failLimit is the absolute bound on fail_ratio.
const failLimit = 0.001

// result is everything one run of one workload reports.
type result struct {
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Correct   bool              `json:"correct"`
	Valid     bool              `json:"valid"` // false: the generator ran late, numbers are not comparable
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	E2E       map[string]metric `json:"end_to_end"`
	Layer     map[string]metric `json:"per_layer"`
	// Diag holds what is never gated: each sliced metric over the whole
	// window, and the tail — the highest percentile the sample supports,
	// the maximum, and the sample counts behind them.
	Diag map[string]metric `json:"diagnostics"`
	// Slices holds the per-second values behind each sliced metric.
	Slices map[string][]float64 `json:"slices"`
	Errors []string             `json:"errors,omitempty"` // failed checks
	Notes  []string             `json:"notes,omitempty"`
}

func newResult(workload string, seed uint64) *result {
	return &result{Workload: workload, Seed: seed, Correct: true, Valid: true,
		E2E: map[string]metric{}, Layer: map[string]metric{}, Diag: map[string]metric{}, Slices: map[string][]float64{}}
}

func set(m map[string]metric, name string, v float64) {
	u, ok := units[name]
	if !ok {
		panic("benchmark: metric " + name + " has no unit")
	}
	m[name] = metric{Value: v, Unit: u}
}

func (r *result) setE2E(name string, v float64)   { set(r.E2E, name, v) }
func (r *result) setLayer(name string, v float64) { set(r.Layer, name, v) }

// fail records a failed check: the run is incorrect and exits non-zero.
func (r *result) fail(msg string) {
	r.Correct = false
	r.Errors = append(r.Errors, msg)
}

// finish settles fail_ratio once every check has run: the share of
// requests that failed, or 1 when any check did — a workload whose
// answers cannot be trusted served nothing.
func (r *result) finish() {
	ratio := float64(r.Failed) / float64(max(r.Attempted, 1))
	if ratio > failLimit {
		r.fail(fmt.Sprintf("fail_ratio %.5f exceeds %.3f: %d of %d requests failed, were rejected, had the wrong shape or went unanswered", ratio, failLimit, r.Failed, r.Attempted))
	}
	if !r.Correct {
		ratio = 1
	}
	r.setE2E("fail_ratio", ratio)
}

// readRSS sums the daemons' peak resident sets.
func (r *result) readRSS(d *deployment) {
	total := 0.0
	for _, dm := range d.all {
		mb, err := procPeakRSS(dm.pid())
		if err != nil {
			r.fail(fmt.Sprintf("rss: %s: %v", dm.name, err))
			return
		}
		total += mb
	}
	r.setE2E("rss_mb", total)
}

// measure turns a drive's records, marks and scrapes into metrics.
func (r *result) measure(w workload, d *deployment, dr *drive) {
	// Sort every request of the window into its slice.
	edges := dr.marks
	slices := len(edges) - 1
	type sliceStats struct {
		samples, writes []time.Duration // latencies of successful requests
	}
	per := make([]sliceStats, slices)
	var all sliceStats
	var lag []time.Duration
	var service time.Duration
	for i, rec := range dr.records {
		at := rec.Done // closed loop: completions inside the window
		if w.open {
			at = rec.Due // open loop: arrivals due inside the window
		}
		k := sort.Search(len(edges), func(k int) bool { return edges[k].at > at }) - 1
		if k < 0 || k >= slices {
			continue
		}
		r.Attempted++
		if w.open {
			lag = append(lag, dr.lag[i])
		}
		if !rec.OK {
			r.Failed++
			continue
		}
		service += rec.Service()
		if rec.Kind == kindWrite {
			per[k].writes = append(per[k].writes, rec.Latency())
			all.writes = append(all.writes, rec.Latency())
		} else {
			per[k].samples = append(per[k].samples, rec.Latency())
			all.samples = append(all.samples, rec.Latency())
		}
	}
	ok := len(all.samples) + len(all.writes)
	for k := range per {
		if len(per[k].samples) == 0 || (len(all.writes) > 0 && len(per[k].writes) == 0) {
			r.fail(fmt.Sprintf("second %d of the window completed no sample request, or no write (%d requests attempted over all of it)", k+1, r.Attempted))
			return
		}
		loadgen.SortDurations(per[k].samples)
		loadgen.SortDurations(per[k].writes)
	}
	loadgen.SortDurations(all.samples)
	loadgen.SortDurations(all.writes)

	// Each end-to-end figure is computed per slice, and the run reports
	// the slice at the quartile on the quiet side (see slice). The value
	// over the whole window goes beside it as a diagnostic.
	const lower, higher = false, true
	quiet := func(name string, better bool, window float64, f func(k int, s *sliceStats, seconds float64) float64) float64 {
		vals := make([]float64, slices)
		for k := range per {
			vals[k] = f(k, &per[k], (edges[k+1].at - edges[k].at).Seconds())
		}
		r.Slices[name] = vals
		r.Diag[name+"_window"] = metric{window, units[name]}
		q1, _, q3 := quartiles(vals)
		if better == higher {
			return q3
		}
		return q1
	}
	pct := func(sorted []time.Duration, p float64) float64 {
		return loadgen.Micros(loadgen.Percentile(sorted, p))
	}
	slicePct := func(pick func(*sliceStats) []time.Duration, p float64) func(int, *sliceStats, float64) float64 {
		return func(_ int, s *sliceStats, _ float64) float64 { return pct(pick(s), p) }
	}
	samples := func(s *sliceStats) []time.Duration { return s.samples }
	writes := func(s *sliceStats) []time.Duration { return s.writes }
	first, last := edges[0], edges[slices]
	window := (last.at - first.at).Seconds()

	r.setE2E("lat_p50_us", quiet("lat_p50_us", lower, pct(all.samples, 50), slicePct(samples, 50)))
	r.setE2E("lat_p90_us", quiet("lat_p90_us", lower, pct(all.samples, 90), slicePct(samples, 90)))
	capacity := quiet("throughput_rps", higher, float64(ok)/window, func(_ int, s *sliceStats, sec float64) float64 {
		return float64(len(s.samples)+len(s.writes)) / sec
	})
	if w.open {
		// The schedule, not the host, sets an open loop's rate: report what
		// was delivered over the whole window.
		capacity = float64(ok) / window
	}
	r.setE2E("throughput_rps", capacity)
	r.tail("lat", all.samples)
	if len(all.writes) > 0 {
		r.setE2E("write_lat_p50_us", quiet("write_lat_p50_us", lower, pct(all.writes, 50), slicePct(writes, 50)))
		r.setE2E("write_lat_p90_us", quiet("write_lat_p90_us", lower, pct(all.writes, 90), slicePct(writes, 90)))
		r.setE2E("write_keys_per_s", quiet("write_keys_per_s", higher, float64(len(all.writes)*writeKeys)/window, func(_ int, s *sliceStats, sec float64) float64 {
			return float64(len(s.writes)*writeKeys) / sec
		}))
		r.tail("write_lat", all.writes)
	}

	if procMetrics {
		r.setE2E("server_cpu_us_per_req", quiet("server_cpu_us_per_req", lower, loadgen.Micros(last.cpu.run-first.cpu.run)/float64(ok), func(k int, s *sliceStats, _ float64) float64 {
			return loadgen.Micros(edges[k+1].cpu.run-edges[k].cpu.run) / float64(len(s.samples)+len(s.writes))
		}))
		user, sys := last.cpu.user-first.cpu.user, last.cpu.sys-first.cpu.sys
		r.setLayer("irsd.cpu_user_share", loadgen.Ratio(float64(user), float64(user+sys)))
		r.readRSS(d)
	} else {
		r.Notes = append(r.Notes, "no /proc on this platform: server_cpu_us_per_req, rss_mb and irsd.cpu_user_share are absent")
	}
	r.setLayer("loadgen.cpu_s", (last.self - first.self).Seconds())
	if w.open {
		loadgen.SortDurations(lag)
		r.setLayer("loadgen.lag_p50_us", loadgen.Micros(loadgen.Percentile(lag, 50)))
		r.setLayer("loadgen.lag_p99_us", loadgen.Micros(loadgen.Percentile(lag, 99)))
		if p99 := loadgen.Percentile(lag, 99); p99 > lagLimit {
			r.Valid = false
			r.Notes = append(r.Notes, fmt.Sprintf("INVALID: loadgen.lag_p99_us %.0f exceeds %.0f, the generator did not keep its timeline", loadgen.Micros(p99), loadgen.Micros(lagLimit)))
		}
	}

	r.counters(w, d, dr, loadgen.Micros(service)/float64(ok))
}

// counters turns the scrapes on either side of the window into the
// per-layer metrics that are ratios of counter movements. meanService is
// the client's mean service time over the window, in microseconds.
func (r *result) counters(w workload, d *deployment, dr *drive, meanService float64) {
	// Data daemons pooled, the front daemon (the last of deployment.all)
	// alone.
	data := loadgen.Metrics{}
	for i := range d.data {
		data = data.Add(dr.after[i].Sub(dr.before[i]))
	}
	front := dr.after[len(d.all)-1].Sub(dr.before[len(d.all)-1])
	histMean := func(m loadgen.Metrics, family string, labels ...string) float64 {
		return 1e6 * loadgen.Ratio(m.Sum(family+"_sum", labels...), m.Sum(family+"_count", labels...))
	}
	r.setLayer("coalescer.sample_batch_mean", loadgen.Ratio(data.Sum("irsd_dataset_sample_requests_total"), data.Sum("irsd_dataset_sample_batches_total")))
	r.setLayer("coalescer.rejected", data.Sum("irsd_dataset_sample_rejected_total")+data.Sum("irsd_dataset_insert_rejected_total"))
	const tcpHist, httpHist = "irsd_tcp_request_duration_seconds", "irsd_http_request_duration_seconds"
	var frontMean float64
	switch {
	case w.cluster:
		frontMean = histMean(front, tcpHist)
		r.setLayer("cluster.router_time_mean_us", frontMean)
		r.setLayer("cluster.node_time_mean_us", histMean(data, httpHist, `encoding="binary"`))
	case w.encoding == client.EncodingTCP:
		frontMean = histMean(front, tcpHist)
		r.setLayer("irsnet.server_time_mean_us", frontMean)
	default:
		frontMean = histMean(front, httpHist, `encoding="json"`)
		r.setLayer("http.server_time_mean_us", frontMean)
	}
	r.setLayer("front.server_time_mean_us", frontMean)
	r.setLayer("client.outside_server_mean_us", meanService-frontMean)
	// Layers the workload does not exercise move no counter: their ratios
	// read 0 (see loadgen.Ratio), which is what "no WAL traffic" or "no
	// router" looks like in a later comparison.
	r.setLayer("coalescer.insert_batch_mean", loadgen.Ratio(data.Sum("irsd_dataset_insert_requests_total"), data.Sum("irsd_dataset_insert_batches_total")))
	records := data.Sum("irsd_wal_records_total")
	r.setLayer("persist.fsyncs_per_record", loadgen.Ratio(data.Sum("irsd_wal_syncs_total"), records))
	r.setLayer("persist.records_per_write_req", loadgen.Ratio(records, data.Sum("irsd_dataset_insert_requests_total")+data.Sum("irsd_dataset_delete_requests_total")))
	r.setLayer("persist.wal_bytes_per_key", loadgen.Ratio(data.Sum("irsd_wal_bytes_total"), data.Sum("irsd_wal_entries_total")))
	r.setLayer("cluster.node_calls_per_req", loadgen.Ratio(front.Sum("irsd_cluster_partition_requests_total"), front.Sum(tcpHist+"_count")))
}

// tail records the ungated diagnostics of one sorted latency population.
func (r *result) tail(prefix string, sorted []time.Duration) {
	r.Diag[prefix+"_samples"] = metric{float64(len(sorted)), "count"}
	r.Diag[prefix+"_max_us"] = metric{loadgen.Micros(sorted[len(sorted)-1]), "us"}
	if p, ok := loadgen.TailPercentile(len(sorted)); ok {
		r.Diag[fmt.Sprintf("%s_p%v_us", prefix, p)] = metric{loadgen.Micros(loadgen.Percentile(sorted, p)), "us"}
	}
}

// print writes the human-readable lines: workload metric value unit.
func (r *result) print(w io.Writer) {
	for _, group := range []map[string]metric{r.E2E, r.Diag, r.Layer} {
		names := make([]string, 0, len(group))
		for name := range group {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(w, "%s %s %v %s\n", r.Workload, name, group[name].Value, group[name].Unit)
		}
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "%s note: %s\n", r.Workload, n)
	}
	for _, e := range r.Errors {
		fmt.Fprintf(w, "%s CHECK FAILED: %s\n", r.Workload, e)
	}
}

// spec is BENCHMARK.json, the one place metric lists and bounds live.
type spec struct {
	RunSeconds int          `json:"run_seconds"`
	EndToEnd   []specMetric `json:"end_to_end"`
	PerLayer   []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(s.EndToEnd) == 0 || len(s.PerLayer) == 0 {
		return nil, fmt.Errorf("%s: no metrics listed", path)
	}
	return &s, nil
}

// contractLine is the last line of standard output: exactly the metrics
// BENCHMARK.json lists — end to end for an untraced run, per layer for a
// traced one — so the file and the program cannot drift apart.
func (r *result) contractLine(s *spec, traced bool) (string, error) {
	list, from := s.EndToEnd, r.E2E
	if traced {
		list, from = s.PerLayer, r.Layer
	}
	metrics := make(map[string]metric, len(list))
	for _, sm := range list {
		m, ok := from[sm.Name]
		if !ok {
			return "", fmt.Errorf("BENCHMARK.json lists %q, which workload %s did not measure", sm.Name, r.Workload)
		}
		if m.Unit != sm.Unit {
			return "", fmt.Errorf("BENCHMARK.json gives %q unit %q, the benchmark measures it in %q", sm.Name, sm.Unit, m.Unit)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return "", fmt.Errorf("metric %q of workload %s is %v", sm.Name, r.Workload, m.Value)
		}
		metrics[sm.Name] = m
	}
	b, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, max(r.Attempted, 1), r.Failed, metrics})
	return string(b), err
}

// quartiles returns the three cut points Python's
// statistics.quantiles(values, n=4) gives, so the spread printed here is
// the spread the driver computes.
func quartiles(values []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// summarize prints, for every end-to-end metric of BENCHMARK.json, the
// median and quartiles over the repeats of each workload and whether the
// spread stayed inside the metric's bound.
func summarize(w io.Writer, s *spec, todo []workload, results []*result) {
	fmt.Fprintf(w, "\n%-14s %-22s %12s %12s %12s %8s %6s\n", "workload", "metric", "q1", "median", "q3", "spread", "bound")
	for _, wl := range todo {
		for _, sm := range s.EndToEnd {
			var vals []float64
			for _, r := range results {
				if m, ok := r.E2E[sm.Name]; ok && r.Workload == wl.name {
					vals = append(vals, m.Value)
				}
			}
			if len(vals) < 2 {
				continue
			}
			q1, q2, q3 := quartiles(vals)
			spread := (q3 - q1) / q2
			verdict := "inside"
			if spread > sm.Bound {
				verdict = "OUTSIDE"
			}
			fmt.Fprintf(w, "%-14s %-22s %12.4f %12.4f %12.4f %7.1f%% %5.0f%%  %s\n", wl.name, sm.Name, q1, q2, q3, 100*spread, 100*sm.Bound, verdict)
		}
	}
}

// stamp identifies what produced a set of numbers.
type stamp struct {
	Commit     string   `json:"commit"`
	GoVersion  string   `json:"go_version"`
	Kernel     string   `json:"kernel"`
	NProc      int      `json:"nproc"`
	GenProcs   int      `json:"generator_gomaxprocs"`
	ChildProcs int      `json:"daemon_gomaxprocs"`
	Seed       uint64   `json:"seed"`
	Keys       int      `json:"keys"`
	WarmupS    float64  `json:"warmup_s"`
	WindowS    float64  `json:"window_s"`
	Quick      bool     `json:"quick"` // true: not comparable with full runs
	Traced     bool     `json:"traced"`
	Precise    bool     `json:"precise_sleep"`
	Args       []string `json:"args"`
}

func (s stamp) print(w io.Writer) {
	quick := ""
	if s.Quick {
		quick = " QUICK (not comparable with full runs)"
	}
	fmt.Fprintf(w, "# commit %s, %s, kernel %s, nproc %d, GOMAXPROCS generator %d daemons %d, seed %d, keys %d, warm-up %gs, window %gs%s\n",
		s.Commit, s.GoVersion, s.Kernel, s.NProc, s.GenProcs, s.ChildProcs, s.Seed, s.Keys, s.WarmupS, s.WindowS, quick)
}

// writeOut writes the stamp and every result as JSON to path.
func writeOut(path string, s stamp, results []*result) error {
	b, err := json.MarshalIndent(struct {
		Stamp   stamp     `json:"stamp"`
		Results []*result `json:"results"`
	}{s, results}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
