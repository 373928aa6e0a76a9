// Package bench is the experiment harness: it regenerates every table in
// EXPERIMENTS.md. Each experiment validates one complexity claim of the
// paper (or of a labelled extension) by sweeping a parameter and reporting
// the measured shape; the cmd/irsbench binary and the repository-root
// benchmarks both drive this package.
package bench

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// Config controls experiment scale.
type Config struct {
	// Quick shrinks dataset sizes and measurement windows roughly 10x, for
	// CI-speed runs. Full runs take a few minutes in total.
	Quick bool
	// Seed drives every generator; equal seeds give equal tables.
	Seed uint64
}

// scaled returns full, or quick if cfg.Quick.
func (c Config) scaled(full, quick int) int {
	if c.Quick {
		return quick
	}
	return full
}

func (c Config) minDur() time.Duration {
	if c.Quick {
		return 10 * time.Millisecond
	}
	return 120 * time.Millisecond
}

// Table is a rendered experiment result.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "### %s\n\n", t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(t.Columns))
		for i := range t.Columns {
			cell := ""
			if i < len(cells) {
				cell = cells[i]
			}
			parts[i] = fmt.Sprintf("%-*s", widths[i], cell)
		}
		fmt.Fprintf(w, "| %s |\n", strings.Join(parts, " | "))
	}
	line(t.Columns)
	seps := make([]string, len(t.Columns))
	for i := range seps {
		seps[i] = strings.Repeat("-", widths[i])
	}
	line(seps)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "\n%s\n", n)
	}
	fmt.Fprintln(w)
}

// measure times f(batch) adaptively until the total run time reaches min,
// returning nanoseconds per iteration. f must perform exactly `batch`
// iterations of the operation under test.
func measure(min time.Duration, f func(batch int)) float64 {
	f(1) // warm-up
	batch := 1
	for {
		start := time.Now()
		f(batch)
		elapsed := time.Since(start)
		if elapsed >= min {
			return float64(elapsed.Nanoseconds()) / float64(batch)
		}
		// Grow toward the target, capped to avoid overshooting wildly.
		next := batch * 4
		if elapsed > 0 {
			est := int(float64(batch) * float64(min) * 1.2 / float64(elapsed))
			if est > next {
				next = est
			}
		}
		if next > 50_000_000 {
			next = 50_000_000
		}
		batch = next
	}
}

// Experiment couples an id to its implementation.
type Experiment struct {
	ID    string
	Title string
	Run   func(Config) ([]*Table, error)
}

// All returns every experiment in id order.
func All() []Experiment {
	exps := []Experiment{
		{"E1", "Static query time vs n (O(log n + t): per-sample cost flat in n)", runE1},
		{"E2", "Static query time vs t (linear in t, O(1) per sample)", runE2},
		{"E3", "Static without-replacement vs with-replacement (Floyd)", runE3},
		{"E4", "Dynamic query time vs n and vs t (O(log n + t) expected)", runE4},
		{"E5", "Update cost vs n (O(log n) amortized)", runE5},
		{"E6", "Query-strategy crossover vs selectivity (IRS vs rank-select vs report+sample)", runE6},
		{"E7", "Space per key vs n (linear space)", runE7},
		{"E8", "Uniformity: chi-square goodness of fit per distribution", runE8},
		{"E9", "Independence across queries (autocorrelation, repeat-query distinctness)", runE9},
		{"E10", "Rejection probe distribution (expected O(1), geometric tail)", runE10},
		{"E11", "Weighted extension: sampler trade-offs vs t and weight ratio U", runE11},
		{"E12", "External-memory model: I/O per query, sampling vs scanning", runE12},
		{"E13", "Mixed workload throughput (queries interleaved with updates)", runE13},
		{"E14", "Ablation: chunk parameter s", runE14},
		{"E15", "Ablation: short-range collect fast path", runE15},
		{"E16", "Concurrent sharded sampler: single-thread overhead and multi-core scaling", runE16},
		{"E17", "Weighted concurrent sampler: overhead vs unweighted, multi-core scaling, batch amortization", runE17},
	}
	sort.Slice(exps, func(i, j int) bool {
		// E1..E9 sort before E10+ numerically.
		return numOf(exps[i].ID) < numOf(exps[j].ID)
	})
	return exps
}

func numOf(id string) int {
	n := 0
	fmt.Sscanf(id, "E%d", &n)
	return n
}

// ByID returns the experiment with the given id.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if strings.EqualFold(e.ID, id) {
			return e, true
		}
	}
	return Experiment{}, false
}
