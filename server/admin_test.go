package server_test

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/irsgo/irs/server"
)

// TestAdminAddDropHTTP drives the dataset registry over the admin
// endpoints: add, list, serve traffic, drop, and the typed errors on
// collisions and absent names — errors.Is works across the wire exactly
// as on the data endpoints.
func TestAdminAddDropHTTP(t *testing.T) {
	_, cl, _, stop := newTestDaemon(t, server.Config{}, 100)
	defer stop()
	ctx := context.Background()

	if err := cl.AddDataset(ctx, "runtime", false); err != nil {
		t.Fatalf("AddDataset: %v", err)
	}
	if err := cl.AddDataset(ctx, "runtime", false); !errors.Is(err, server.ErrDuplicateDataset) {
		t.Errorf("duplicate add: err = %v, want ErrDuplicateDataset", err)
	}
	if err := cl.AddDataset(ctx, "u", true); !errors.Is(err, server.ErrDuplicateDataset) {
		t.Errorf("add over boot dataset: err = %v, want ErrDuplicateDataset", err)
	}

	// The new dataset serves immediately, on both encodings.
	if _, err := cl.InsertKeys(ctx, "runtime", []float64{1, 2, 3}); err != nil {
		t.Fatalf("insert into runtime dataset: %v", err)
	}
	if got, err := cl.Sample(ctx, "runtime", 0, 10, 4); err != nil || len(got) != 4 {
		t.Fatalf("sample runtime dataset: %v (%d samples)", err, len(got))
	}
	bin := *cl
	bin.Binary = true
	if _, err := bin.Sample(ctx, "runtime", 0, 10, 2); err != nil {
		t.Fatalf("binary sample runtime dataset: %v", err)
	}

	infos, err := cl.ListDatasets(ctx)
	if err != nil {
		t.Fatalf("ListDatasets: %v", err)
	}
	byName := map[string]server.DatasetInfo{}
	for _, in := range infos {
		byName[in.Name] = in
	}
	if in, ok := byName["runtime"]; !ok || in.Kind != "unweighted" || in.State != "serving" {
		t.Errorf("runtime dataset listing = %+v, want serving unweighted", byName["runtime"])
	}

	if err := cl.DropDataset(ctx, "runtime", false); err != nil {
		t.Fatalf("DropDataset: %v", err)
	}
	if _, err := cl.Sample(ctx, "runtime", 0, 10, 1); !errors.Is(err, server.ErrUnknownDataset) {
		t.Errorf("sample after drop: err = %v, want ErrUnknownDataset", err)
	}
	if err := cl.DropDataset(ctx, "runtime", false); !errors.Is(err, server.ErrUnknownDataset) {
		t.Errorf("second drop: err = %v, want ErrUnknownDataset", err)
	}
	// The boot datasets were untouched.
	if _, err := cl.Sample(ctx, "u", 0, 99, 3); err != nil {
		t.Errorf("boot dataset after drop: %v", err)
	}
}

// TestAdminWeightedAdd: the weighted flag provisions a weighted dataset.
func TestAdminWeightedAdd(t *testing.T) {
	_, cl, _, stop := newTestDaemon(t, server.Config{}, 10)
	defer stop()
	ctx := context.Background()

	if err := cl.AddDataset(ctx, "wrt", true); err != nil {
		t.Fatalf("AddDataset weighted: %v", err)
	}
	if _, err := cl.InsertItems(ctx, "wrt", []server.Item{{Key: 1, Weight: 5}}); err != nil {
		t.Fatalf("weighted insert: %v", err)
	}
	if _, err := cl.Update(ctx, "wrt", []server.Item{{Key: 1, Weight: 9}}); err != nil {
		t.Fatalf("weighted update: %v", err)
	}
}

// TestAdminEndpointErrors covers the handler-level error paths: bad
// method, empty name, malformed body, and nested paths.
func TestAdminEndpointErrors(t *testing.T) {
	_, _, base, stop := newTestDaemon(t, server.Config{}, 10)
	defer stop()

	for _, tc := range []struct {
		method, path, body string
		wantStatus         int
	}{
		{http.MethodDelete, "/datasets", "", http.StatusMethodNotAllowed},
		{http.MethodPost, "/datasets/u", "", http.StatusMethodNotAllowed},
		{http.MethodDelete, "/datasets/", "", http.StatusNotFound},
		{http.MethodDelete, "/datasets/a/b", "", http.StatusNotFound},
		{http.MethodPost, "/datasets", `{"dataset":""}`, http.StatusBadRequest},
		{http.MethodPost, "/datasets", `{bad json`, http.StatusBadRequest},
	} {
		req, err := http.NewRequest(tc.method, base+tc.path, strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.wantStatus {
			t.Errorf("%s %s: status = %d, want %d", tc.method, tc.path, resp.StatusCode, tc.wantStatus)
		}
	}
}

// TestAdminRejectsBadNames: on a durable daemon the dataset name becomes
// a directory under the data dir, so POST /datasets must refuse — before
// the provisioner runs — any name that is not a single path element:
// 400 bad_request, nothing created on disk, registry unchanged.
func TestAdminRejectsBadNames(t *testing.T) {
	root := t.TempDir()
	dataDir := filepath.Join(root, "data")
	s := server.New(server.Config{})
	// The provisioner cmd/irsd installs under -data-dir.
	s.SetProvisioner(func(name string, weighted bool) error {
		_, _, err := s.AddDurableUnweighted(name, server.DurableOptions{Dir: filepath.Join(dataDir, name)})
		return err
	})
	ts := httptest.NewServer(s)
	defer ts.Close()
	defer s.Close()
	cl := server.NewClient(ts.URL)
	ctx := context.Background()
	if err := cl.AddDataset(ctx, "good", false); err != nil {
		t.Fatalf("AddDataset good: %v", err)
	}

	for _, name := range []string{"../escaped", "a/b", `a\b`, "..", ".", "a:b", "a,b", "a@b", "a#b", "nul\x00", strings.Repeat("n", 256)} {
		err := cl.AddDataset(ctx, name, false)
		var apiErr *server.APIError
		if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest || apiErr.Code != "bad_request" {
			t.Errorf("add %q: err = %v, want 400 bad_request", name, err)
		}
		if err := s.AddDataset(name, false); err == nil {
			t.Errorf("in-process add %q: accepted", name)
		}
	}
	for dir, want := range map[string]string{root: "data", dataDir: "good"} {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 1 || entries[0].Name() != want {
			t.Errorf("%s holds %v, want only %q", dir, entries, want)
		}
	}
	if got := s.Datasets(); len(got) != 1 || got[0] != "good" {
		t.Errorf("registry = %v, want [good]", got)
	}
}

// stubBackend satisfies server.Backend for proxy construction; the admin
// rejection happens before any backend call, so only Stats (used by the
// list endpoint) needs a real body.
type stubBackend struct{ server.Backend }

func (stubBackend) Stats() server.Stats { return server.Stats{} }

// TestAdminOnProxy: a proxy server has no local registry; the admin
// surface answers 501 not_supported rather than pretending.
func TestAdminOnProxy(t *testing.T) {
	proxy := server.NewProxy(stubBackend{})
	ts := httptest.NewServer(proxy)
	defer ts.Close()

	cl := server.NewClient(ts.URL)
	err := cl.AddDataset(context.Background(), "x", false)
	var apiErr *server.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusNotImplemented || apiErr.Code != "not_supported" {
		t.Errorf("add on proxy: err = %v, want 501 not_supported", err)
	}
	if err := proxy.AddDataset("x", false); !errors.Is(err, server.ErrProxy) {
		t.Errorf("in-process add on proxy: err = %v, want ErrProxy", err)
	}
	if err := proxy.RemoveDataset("x", false); !errors.Is(err, server.ErrProxy) {
		t.Errorf("in-process drop on proxy: err = %v, want ErrProxy", err)
	}
}

// TestAdminDurableDrop: dropping a durable dataset with snapshot=true
// takes a final snapshot and closes the store; re-registering the same
// directory recovers the dropped state.
func TestAdminDurableDrop(t *testing.T) {
	dir := t.TempDir()
	s := server.New(server.Config{})
	opts := server.DurableOptions{Dir: filepath.Join(dir, "d"), Shards: 2, Seed: 3}
	if _, _, err := s.AddDurableUnweighted("d", opts); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	cl := server.NewClient(ts.URL)
	ctx := context.Background()
	if _, err := cl.InsertKeys(ctx, "d", []float64{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	if err := cl.DropDataset(ctx, "d", true); err != nil {
		t.Fatalf("durable drop: %v", err)
	}
	if _, err := cl.Sample(ctx, "d", 0, 10, 1); !errors.Is(err, server.ErrUnknownDataset) {
		t.Errorf("sample after durable drop: err = %v, want ErrUnknownDataset", err)
	}
	ts.Close()
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// The directory is released and intact: a fresh server recovers it.
	s2 := server.New(server.Config{})
	c2, rec, err := s2.AddDurableUnweighted("d", opts)
	if err != nil {
		t.Fatalf("re-open dropped directory: %v", err)
	}
	if c2.Len() != 4 {
		t.Errorf("recovered %d items, want 4", c2.Len())
	}
	// The final snapshot covered the whole history: nothing to replay.
	if rec.RecordsReplayed != 0 {
		t.Errorf("recovery replayed %d WAL records, want 0 after final snapshot", rec.RecordsReplayed)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
}
