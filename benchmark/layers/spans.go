// Package layers is the traced half of the serving benchmark: an
// in-process replay of a workload's own request stream, one request at a
// time, with a span recorded around each call into a layer's public
// functions. End-to-end numbers come from the untraced daemons; this
// replay says where one request's time goes. Spans are recorded from this
// package only — nothing inside the system under test is instrumented —
// so a layer's self time is its span minus the spans of the same request
// replayed one level down.
package layers

import (
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// Span is one timed call into a layer. Spans of one replayed request share
// Req. Parent is the ID of the span one level up, or -1; a child is a
// separate replay of the same request against the lower layer, so its
// interval follows its parent's in time instead of nesting inside it.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // offset from the replay's start
	End    int64  `json:"end_ns"`
}

// recorder keeps one span per (layer, request) in memory; nothing is
// written until the replay is over. Span IDs are layer*requests+request,
// so a parent's ID is known before the parent has run.
type recorder struct {
	on     bool
	t0     time.Time
	n      int // requests
	layers []string
	parent []int // parent layer index, or -1
	spans  []Span
}

func newRecorder(n int, layers []string, parent []int) *recorder {
	return &recorder{on: true, t0: time.Now(), n: n, layers: layers, parent: parent, spans: make([]Span, n*len(layers))}
}

// time runs f as request req's call into layer, recording its span.
func (r *recorder) time(layer, req int, f func()) {
	if !r.on {
		f()
		return
	}
	start := time.Since(r.t0)
	f()
	r.put(layer, req, start, time.Since(r.t0))
}

func (r *recorder) put(layer, req int, start, end time.Duration) {
	parent := -1
	if p := r.parent[layer]; p >= 0 {
		parent = p*r.n + req
	}
	r.spans[layer*r.n+req] = Span{ID: layer*r.n + req, Parent: parent, Req: req, Name: r.layers[layer], Start: int64(start), End: int64(end)}
}

// meanMicros is the mean duration of a layer's spans, in microseconds.
// Means, unlike medians, add up: the self times of a chain sum to the
// root's mean exactly.
func (r *recorder) meanMicros(layer int) float64 {
	var sum int64
	for _, s := range r.spans[layer*r.n : (layer+1)*r.n] {
		sum += s.End - s.Start
	}
	return float64(sum) / float64(r.n) / 1e3
}

// Budget is one line of the layer budget: a layer on the blocking path of
// the workload's request and its self time.
type Budget struct {
	Layer  string  `json:"layer"`
	SelfUS float64 `json:"self_us"`
}

// File is the span dump: the budget computed from the spans, then the
// spans themselves.
type File struct {
	Workload string   `json:"workload"`
	Seed     uint64   `json:"seed"`
	Requests int      `json:"requests"`
	Root     string   `json:"root"`
	TotalUS  float64  `json:"total_us"`
	Budget   []Budget `json:"budget"`
	Spans    []Span   `json:"spans"`
}

// Write dumps the file as JSON.
func (f *File) Write(path string) error {
	b, err := json.Marshal(f)
	if err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	return nil
}
