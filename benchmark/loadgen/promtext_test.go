package loadgen

import (
	"math"
	"testing"
)

const scrapeBefore = `# HELP irsd_dataset_sample_requests_total Sample requests admitted.
# TYPE irsd_dataset_sample_requests_total counter
irsd_dataset_sample_requests_total{dataset="bench"} 100
irsd_dataset_sample_batches_total{dataset="bench"} 40
irsd_dataset_sample_batches_total{dataset="other"} 5
irsd_tcp_request_duration_seconds_bucket{le="0.001024"} 90
irsd_tcp_request_duration_seconds_bucket{le="+Inf"} 100
irsd_tcp_request_duration_seconds_sum 0.05
irsd_tcp_request_duration_seconds_count 100
irsd_http_request_duration_seconds_sum{encoding="json"} 1.5
irsd_http_request_duration_seconds_sum{encoding="binary"} 0.25
irsd_build_info{version="dev build",go="go1.24.0"} 1
irsd_tcp_connections_open 2
`

const scrapeAfter = `irsd_dataset_sample_requests_total{dataset="bench"} 1100
irsd_dataset_sample_batches_total{dataset="bench"} 240
irsd_dataset_sample_batches_total{dataset="other"} 5
irsd_tcp_request_duration_seconds_sum 0.3
irsd_tcp_request_duration_seconds_count 1100
irsd_http_request_duration_seconds_sum{encoding="json"} 1.5
irsd_http_request_duration_seconds_sum{encoding="binary"} 0.75
irsd_wal_records_total{dataset="bench"} 12
`

func TestMetricsDelta(t *testing.T) {
	before, err := ParseMetrics([]byte(scrapeBefore))
	if err != nil {
		t.Fatal(err)
	}
	after, err := ParseMetrics([]byte(scrapeAfter))
	if err != nil {
		t.Fatal(err)
	}
	if got := before[`irsd_build_info{version="dev build",go="go1.24.0"}`]; got != 1 {
		t.Errorf("label value with a space parsed to %v", got)
	}
	d := after.Sub(before)
	near := func(name string, got, want float64) {
		t.Helper()
		if math.Abs(got-want) > 1e-12 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	near("requests", d.Sum("irsd_dataset_sample_requests_total"), 1000)
	near("batches, all datasets", d.Sum("irsd_dataset_sample_batches_total"), 200)
	near("batches, one dataset", d.Sum("irsd_dataset_sample_batches_total", `dataset="other"`), 0)
	near("batch mean", Ratio(d.Sum("irsd_dataset_sample_requests_total"), d.Sum("irsd_dataset_sample_batches_total")), 5)
	near("tcp mean seconds", Ratio(d.Sum("irsd_tcp_request_duration_seconds_sum"), d.Sum("irsd_tcp_request_duration_seconds_count")), 0.25/1000)
	near("http binary sum", d.Sum("irsd_http_request_duration_seconds_sum", `encoding="binary"`), 0.5)
	near("series new in the second scrape counts from zero", d.Sum("irsd_wal_records_total"), 12)
	// A family name is not a prefix match: _sum must not pick up _summary.
	near("exact family", Metrics{"a_sum": 1, "a_summary": 2, `a_sum{x="1"}`: 4}.Sum("a_sum"), 5)
	near("no requests, no ratio", Ratio(3, 0), 0)
	near("pooled daemons", before.Add(after).Sum("irsd_dataset_sample_requests_total"), 1200)
}

func TestParseMetricsRejectsGarbage(t *testing.T) {
	for _, text := range []string{"<html>not metrics</html>\n", "name_without_value\n", "name notanumber\n"} {
		if _, err := ParseMetrics([]byte(text)); err == nil {
			t.Errorf("ParseMetrics(%q) accepted a malformed line", text)
		}
	}
}
