package loadgen

import (
	"bufio"
	"bytes"
	"fmt"
	"strconv"
	"strings"
)

// Metrics is one scrape of a Prometheus text exposition: each series,
// spelled exactly as exposed (name plus label set), and its value.
type Metrics map[string]float64

// ParseMetrics parses the text exposition format the daemons' /metrics
// endpoint renders. Comment lines are skipped; a malformed sample line is
// an error, so a scrape of the wrong endpoint cannot pass for zeroes.
func ParseMetrics(text []byte) (Metrics, error) {
	m := Metrics{}
	sc := bufio.NewScanner(bytes.NewReader(text))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		// The value follows the last space; label values may hold spaces.
		cut := strings.LastIndexByte(line, ' ')
		if cut <= 0 {
			return nil, fmt.Errorf("metrics: malformed line %q", line)
		}
		v, err := strconv.ParseFloat(line[cut+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: line %q: %w", line, err)
		}
		m[strings.TrimSpace(line[:cut])] = v
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("metrics: %w", err)
	}
	return m, nil
}

// Sum adds every series of the family name whose label set contains all
// of the given label pairs (each spelled `key="value"`).
func (m Metrics) Sum(name string, labels ...string) float64 {
	total := 0.0
series:
	for k, v := range m {
		rest, ok := strings.CutPrefix(k, name)
		if !ok || (rest != "" && rest[0] != '{') {
			continue
		}
		for _, l := range labels {
			if !strings.Contains(rest, l) {
				continue series
			}
		}
		total += v
	}
	return total
}

// Sub returns m minus before, series by series: the counter movement
// between two scrapes. A series absent from before counts from zero.
func (m Metrics) Sub(before Metrics) Metrics {
	d := make(Metrics, len(m))
	for k, v := range m {
		d[k] = v - before[k]
	}
	return d
}

// Add returns the series-wise sum of m and o, for pooling the scrapes of
// several daemons that expose the same families.
func (m Metrics) Add(o Metrics) Metrics {
	s := make(Metrics, len(m)+len(o))
	for k, v := range m {
		s[k] = v
	}
	for k, v := range o {
		s[k] += v
	}
	return s
}

// Ratio is num/den, or 0 when den is 0 — the value of a per-request
// figure over a window in which no such request ran.
func Ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
