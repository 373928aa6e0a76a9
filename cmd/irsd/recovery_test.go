package main

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http/httptest"
	"reflect"
	"sort"
	"testing"
	"time"

	"github.com/irsgo/irs/internal/spec"
	"github.com/irsgo/irs/server"
)

// discardLogger silences boot logging in tests.
func discardLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// addDurableSpecs creates the spec'd datasets durably under dir through
// irsd's boot path — its provisioner, then addDatasets at most bound at a
// time.
func addDurableSpecs(t *testing.T, s *server.Server, specs, dir string, bound int) error {
	t.Helper()
	list, err := spec.ParseDatasets(specs)
	if err != nil {
		t.Fatalf("parse specs: %v", err)
	}
	s.SetProvisioner(provisioner(s, discardLogger(), 2, 7, dir, server.SyncAlways, 100*time.Millisecond))
	return addDatasets(s, list, bound)
}

// postJSON drives one mutation through the daemon's HTTP surface.
func postJSON(t *testing.T, s *server.Server, path string, body any) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest("POST", path, bytes.NewReader(raw))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != 200 {
		t.Fatalf("POST %s: %d: %s", path, rec.Code, rec.Body.String())
	}
}

// dsFingerprint is the per-dataset state a recovery must reproduce
// exactly regardless of boot concurrency: identity, size, and what the
// recovery itself read (snapshot seq/entries, records replayed).
type dsFingerprint struct {
	Name    string `json:"name"`
	Kind    string `json:"kind"`
	Len     int    `json:"len"`
	Persist *struct {
		Recovery map[string]any `json:"recovery"`
	} `json:"persist"`
}

// bootFingerprints boots a server from dir with at most bound datasets
// recovering at once, reads /stats, closes the server, and returns the
// dataset fingerprints sorted by name.
func bootFingerprints(t *testing.T, dir, specs string, bound int) []dsFingerprint {
	t.Helper()
	s := server.New(server.Config{})
	if err := addDurableSpecs(t, s, specs, dir, bound); err != nil {
		t.Fatalf("boot (bound %d): %v", bound, err)
	}
	defer func() {
		if err := s.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
	}()
	req := httptest.NewRequest("GET", "/stats", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != 200 {
		t.Fatalf("GET /stats: %d: %s", rec.Code, rec.Body.String())
	}
	var doc struct {
		Datasets []dsFingerprint `json:"datasets"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("decode /stats: %v", err)
	}
	sort.Slice(doc.Datasets, func(i, j int) bool { return doc.Datasets[i].Name < doc.Datasets[j].Name })
	return doc.Datasets
}

// TestParallelRecoveryMatchesSerial pins the parallel-boot equivalence:
// recovering a multi-dataset data directory eight datasets at a time must
// reconstruct exactly what a serial (bound 1) boot does —
// same datasets, same sizes, same recovery footprint — with every
// dataset a different size and one mid-history snapshot, so a swapped or
// partially-applied recovery cannot cancel out.
func TestParallelRecoveryMatchesSerial(t *testing.T) {
	dir := t.TempDir()
	const specs = "a,b:weighted,c,d:weighted,e"
	names := []string{"a", "b", "c", "d", "e"}

	seed := server.New(server.Config{})
	if err := addDurableSpecs(t, seed, specs, dir, 2); err != nil {
		t.Fatalf("seeding boot: %v", err)
	}
	for i, name := range names {
		n := (i + 1) * 300 // pairwise-distinct sizes
		keys := make([]float64, n)
		for j := range keys {
			keys[j] = float64(i*1_000_000 + j)
		}
		postJSON(t, seed, "/insert", map[string]any{"dataset": name, "keys": keys})
		postJSON(t, seed, "/delete", map[string]any{"dataset": name, "keys": keys[:50]})
	}
	// One dataset recovers snapshot+tail, the others WAL-only, so the two
	// boots must agree on heterogeneous recovery paths too.
	postJSON(t, seed, "/snapshot", map[string]any{"dataset": "b"})
	postJSON(t, seed, "/insert", map[string]any{"dataset": "b", "keys": []float64{1e9, 2e9}})
	if err := seed.Close(); err != nil {
		t.Fatalf("seeding close: %v", err)
	}

	serial := bootFingerprints(t, dir, specs, 1)
	parallel := bootFingerprints(t, dir, specs, 8)
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("parallel recovery diverges from serial:\nserial:   %+v\nparallel: %+v", serial, parallel)
	}
	if len(serial) != len(names) {
		t.Fatalf("recovered %d datasets, want %d", len(serial), len(names))
	}
	for i, fp := range serial {
		wantLen := (i+1)*300 - 50
		if fp.Name == "b" {
			wantLen += 2
		}
		if fp.Len != wantLen {
			t.Fatalf("dataset %q recovered %d items, want %d", fp.Name, fp.Len, wantLen)
		}
		if fp.Persist == nil || fp.Persist.Recovery == nil {
			t.Fatalf("dataset %q missing recovery stats: %+v", fp.Name, fp)
		}
	}
}
