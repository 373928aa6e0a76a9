package server

import (
	"errors"
	"net/http"
	"runtime"
	"strings"
	"sync"

	irs "github.com/irsgo/irs"
	"github.com/irsgo/irs/internal/spec"
)

// Admin surface: the dataset registry over HTTP.
//
//	GET    /datasets                    -> {"datasets":[{"name","kind","state","durable"},...]}
//	POST   /datasets {"dataset":"d","weighted":false} -> {"dataset":"d","kind":"unweighted"}
//	DELETE /datasets/{name}[?snapshot=true]           -> {"dataset":"d","dropped":true}
//
// Adds go through the server's Provisioner — the hook that decides what a
// runtime-created dataset looks like (shard count, seed, durability).
// New installs a memory-only default; cmd/irsd replaces it with one built
// from the daemon's own flags, so a POSTed dataset is indistinguishable
// from a -datasets one. Drops drain the dataset's in-flight requests,
// sync and close its store, and leave every other dataset serving; see
// internal/server.Core.Remove for the ordering argument.
//
// Errors use the shared wire vocabulary (duplicate_dataset on a name
// collision, unknown_dataset on dropping an absent name), so errors.Is
// against the exported sentinels works exactly as on the data endpoints.
// A name spec.CheckName rejects answers bad_request (400) before the
// Provisioner runs — on a durable daemon the name becomes a directory.
// Proxy servers answer not_supported (501): the registry lives on the
// nodes, not the router.

// Provisioner builds and registers one dataset at runtime under the
// caller's naming. Implementations must register through the Add* family
// (or the core) so the registered dataset carries the usual lifecycle.
type Provisioner func(name string, weighted bool) error

// admin is the Server's admin-surface state.
type admin struct {
	mu        sync.RWMutex
	provision Provisioner
}

// SetProvisioner installs the hook POST /datasets (and AddDataset) builds
// datasets through, replacing the default memory-only one. Safe at any
// time; intended for boot.
func (s *Server) SetProvisioner(p Provisioner) {
	s.adm.mu.Lock()
	defer s.adm.mu.Unlock()
	s.adm.provision = p
}

// defaultProvisioner registers a memory-only dataset with GOMAXPROCS
// shards — the same shape `irsd -datasets name` would build with default
// flags and no durability.
func (s *Server) defaultProvisioner(name string, weighted bool) error {
	shards := runtime.GOMAXPROCS(0)
	if weighted {
		return s.AddWeighted(name, irs.NewWeightedConcurrent[float64](shards, 1))
	}
	return s.AddUnweighted(name, irs.NewConcurrentSeeded[float64](shards, 1))
}

// AddDataset creates and registers a dataset at runtime through the
// installed Provisioner — the in-process form of POST /datasets. A name
// already registered answers ErrDuplicateDataset; a name spec.CheckName
// rejects, its error; proxy servers ErrProxy.
func (s *Server) AddDataset(name string, weighted bool) error {
	if s.core == nil {
		return ErrProxy
	}
	if err := spec.CheckName(name); err != nil {
		return err
	}
	s.adm.mu.RLock()
	p := s.adm.provision
	s.adm.mu.RUnlock()
	if p == nil {
		p = s.defaultProvisioner
	}
	return p(name, weighted)
}

// RemoveDataset drops the named dataset at runtime — the in-process form
// of DELETE /datasets/{name}. The drop drains the dataset's accepted
// requests (no ACK is lost), optionally takes a final compacting
// snapshot, then syncs and closes its store; other datasets keep serving
// untouched. Absent names answer ErrUnknownDataset; proxies ErrProxy.
func (s *Server) RemoveDataset(name string, snapshot bool) error {
	if s.core == nil {
		return ErrProxy
	}
	return s.core.Remove(name, snapshot)
}

// Datasets returns the registered dataset names in sorted order (empty on
// proxy servers, whose registry lives on the nodes).
func (s *Server) Datasets() []string {
	if s.core == nil {
		return nil
	}
	return s.core.Datasets()
}

// handleDatasets serves the /datasets collection: GET lists, POST adds.
func (s *Server) handleDatasets(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		st := s.backend.Stats()
		out := ListDatasetsResponse{Datasets: make([]DatasetInfo, 0, len(st.Datasets))}
		for _, ds := range st.Datasets {
			out.Datasets = append(out.Datasets, DatasetInfo{
				Name: ds.Name, Kind: ds.Kind, State: ds.State, Durable: ds.Durable,
			})
		}
		writeJSON(w, http.StatusOK, out)
	case http.MethodPost:
		var req AddDatasetRequest
		if !readJSON(w, r, &req) {
			return
		}
		if err := s.AddDataset(req.Dataset, req.Weighted); err != nil {
			writeAdminError(w, err)
			return
		}
		kind := "unweighted"
		if req.Weighted {
			kind = "weighted"
		}
		writeJSON(w, http.StatusOK, AddDatasetResponse{Dataset: req.Dataset, Kind: kind})
	default:
		writeError(w, http.StatusMethodNotAllowed, "method_not_allowed", "use GET or POST")
	}
}

// handleDatasetItem serves DELETE /datasets/{name}.
func (s *Server) handleDatasetItem(w http.ResponseWriter, r *http.Request) {
	name := strings.TrimPrefix(r.URL.Path, "/datasets/")
	if name == "" || strings.ContainsRune(name, '/') {
		writeError(w, http.StatusNotFound, "not_found", "no such endpoint: "+r.URL.Path)
		return
	}
	if r.Method != http.MethodDelete {
		writeError(w, http.StatusMethodNotAllowed, "method_not_allowed", "use DELETE")
		return
	}
	snapshot := r.URL.Query().Get("snapshot") == "true" || r.URL.Query().Get("snapshot") == "1"
	if err := s.RemoveDataset(name, snapshot); err != nil {
		writeAdminError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, DropDatasetResponse{Dataset: name, Dropped: true})
}

// writeAdminError maps admin-path errors: ErrProxy gets its own 501 and a
// rejected name 400 (the wire table is the data-path vocabulary shared
// with the TCP transport; neither arises there), everything else the
// shared table.
func writeAdminError(w http.ResponseWriter, err error) {
	switch {
	case err == ErrProxy:
		writeError(w, http.StatusNotImplemented, "not_supported", ErrProxy.Error())
	case errors.Is(err, spec.ErrBadName):
		writeError(w, http.StatusBadRequest, "bad_request", err.Error())
	default:
		writeCoreError(w, err)
	}
}
