// Command irsd is the IRS sampling daemon: it serves named unweighted or
// weighted datasets over HTTP/JSON, HTTP binary frames and (with -tcp-addr)
// the irsnet TCP transport, coalescing concurrent requests into batched
// calls against the concurrent sharded structures. Package server
// documents the protocol and the typed client; DESIGN.md "Daemon runtime"
// the process lifecycle (scraped stdout lines, signals, drain order, exit
// codes) irsd shares with irsrouter through internal/daemon.
//
//	irsd -addr 127.0.0.1:8080 -datasets events,logs:weighted
//	irsd -addr 127.0.0.1:0 -datasets demo -preload 100000
//	irsd -addr 127.0.0.1:8080 -datasets events -data-dir /var/lib/irsd
//
// With -config the dataset list comes from a config file instead of
// -datasets (same element grammar; partition lines are ignored so one file
// can drive irsd and irsrouter). SIGHUP — or a changed mtime when
// -config-poll is set — re-reads the file and applies the diff atomically;
// see reloadConfig.
//
// With -data-dir every dataset is durable: mutations are written ahead to
// a per-dataset WAL under <data-dir>/<name> (fsync policy from -fsync),
// snapshots compact the log (on demand via /snapshot and periodically via
// -snapshot-every), and a restart on the same directory recovers the exact
// dataset state. Exactly one irsd may own a data directory at a time.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	irs "github.com/irsgo/irs"
	"github.com/irsgo/irs/internal/daemon"
	"github.com/irsgo/irs/internal/spec"
	"github.com/irsgo/irs/server"
)

// version is the build identity reported by /stats, /metrics, and the
// boot log; release builds stamp it with
//
//	go build -ldflags "-X main.version=v1.2.3" ./cmd/irsd
var version = "dev"

func main() { os.Exit(daemon.Main(app())) }

// app is irsd's half of the daemon: its flags, its dataset boot, its
// config reload (on SIGHUP and on the -config-poll mtime watch) and its
// periodic snapshots.
func app() daemon.App {
	fs := flag.NewFlagSet("irsd", flag.ContinueOnError)
	var (
		datasets = fs.String("datasets", "demo", "comma-separated name[:weighted|:unweighted] specs")
		shards   = fs.Int("shards", runtime.GOMAXPROCS(0), "target shard count per dataset")
		seed     = fs.Uint64("seed", 1, "seed anchoring each dataset's sampling streams")
		preload  = fs.Int("preload", 0, "keys preloaded per dataset, uniform in [0, 1e6)")
		queue    = fs.Int("queue", 0, "pending-request bound per dataset and path (0 = default)")
		maxBatch = fs.Int("max-batch", 0, "max coalesced requests per backend call (0 = default)")
		window   = fs.Duration("coalesce-window", 0, "deprecated: linger this long for batch-mates, adding at least that latency to every request (0 = batch only what queued while the flushers were busy)")
		flushers = fs.Int("flushers", 0, "parallel backend calls per dataset and path (0 = GOMAXPROCS)")

		dataDir     = fs.String("data-dir", "", "durability root: one WAL+snapshot directory per dataset (empty = memory-only)")
		fsync       = fs.String("fsync", "always", "WAL fsync policy: always, interval, or none")
		fsyncIvl    = fs.Duration("fsync-interval", 100*time.Millisecond, "background fsync period under -fsync interval")
		snapEvery   = fs.Duration("snapshot-every", 15*time.Minute, "background snapshot/compaction period for durable datasets (0 disables)")
		recoverConc = fs.Int("recover-concurrency", 0, "durable datasets recovered in parallel at boot (0 = GOMAXPROCS)")

		configPoll = fs.Duration("config-poll", 0, "poll the -config file's mtime this often and reload on change (0 disables; SIGHUP always works)")
	)
	build := func(c *daemon.Common, logger *slog.Logger) (daemon.Instance, error) {
		s := server.New(server.Config{
			QueueDepth:     *queue,
			MaxBatch:       *maxBatch,
			CoalesceWindow: *window,
			Flushers:       *flushers,
		})
		inst := daemon.Instance{Server: s}
		var policy server.SyncPolicy
		if *dataDir != "" {
			var err error
			if policy, err = server.ParseSyncPolicy(*fsync); err != nil {
				return inst, err
			}
		}
		// The boot dataset list comes from -config when given, -datasets
		// otherwise — same grammar either way.
		list, err := bootDatasets(c.Config, *datasets)
		if err != nil {
			return inst, err
		}
		if err := addDatasetList(s, logger, list, *shards, *seed, *preload, *dataDir, policy, *fsyncIvl, *recoverConc); err != nil {
			return inst, err
		}
		// Runtime-created datasets (POST /datasets, config reload) get the
		// exact shape a boot-time one would: same shards, seed, and durability
		// knobs, minus the preload (a boot convenience, not a lifecycle one).
		s.SetProvisioner(func(name string, weighted bool) error {
			return addDataset(s, logger, spec.Dataset{Name: name, Weighted: weighted}, *shards, *seed, 0, *dataDir, policy, *fsyncIvl)
		})
		if *dataDir != "" {
			// Background snapshots bound WAL replay time after a crash; each
			// run compacts the segments it covers.
			inst.Jobs = append(inst.Jobs, daemon.Job{Every: *snapEvery, Run: func() { snapshotAll(s, logger) }})
		}
		if c.Config != "" {
			inst.Reload = func() error { return reloadConfig(s, logger, c.Config) }
			inst.ConfigPoll = *configPoll
		}
		return inst, nil
	}
	return daemon.App{
		Flags:          fs,
		Version:        version,
		Addr:           "127.0.0.1:8080",
		ConfigReplaces: []string{"datasets"},
		Validate: func(c *daemon.Common) error {
			return validateFlags(c.Explicit, *dataDir, *fsync, *recoverConc, c.Config, *configPoll)
		},
		Build: build,
	}
}

// snapshotAll snapshots whatever is registered now — the registry is live,
// runtime adds and drops change the list. A dataset dropped between listing
// and snapshotting answers unknown_dataset; skip it, the drop already took
// its final snapshot.
func snapshotAll(s *server.Server, logger *slog.Logger) {
	for _, name := range s.Datasets() {
		info, err := s.Snapshot(name)
		switch {
		case err == nil:
			logger.Info("snapshot committed", "dataset", name, "items", info.Items, "wal_seq", info.Seq)
		case errors.Is(err, server.ErrNotDurable), errors.Is(err, server.ErrUnknownDataset):
		default:
			logger.Error("background snapshot failed", "dataset", name, "err", err)
		}
	}
}

// validateFlags rejects the irsd-specific flag combinations that would
// otherwise be ignored silently: durability knobs given without -data-dir,
// a background fsync period under a policy that never uses it, and a
// config poll with no file to watch. explicit reports the flags the user
// actually set, so defaults never trip the validation.
func validateFlags(explicit func(string) bool, dataDir, fsyncPolicy string, recoverConc int, config string, configPoll time.Duration) error {
	if configPoll < 0 {
		return errors.New("-config-poll must be >= 0 (0 disables polling)")
	}
	if explicit("config-poll") && config == "" {
		return errors.New("-config-poll has no effect without -config (there is no file to watch)")
	}
	if recoverConc < 0 {
		return errors.New("-recover-concurrency must be >= 0 (0 means GOMAXPROCS)")
	}
	if dataDir == "" {
		for _, name := range []string{"fsync", "fsync-interval", "snapshot-every", "recover-concurrency"} {
			if explicit(name) {
				return fmt.Errorf("-%s has no effect without -data-dir (datasets are memory-only)", name)
			}
		}
		return nil
	}
	if explicit("fsync-interval") && fsyncPolicy != "interval" {
		return fmt.Errorf("-fsync-interval has no effect with -fsync %s (use -fsync interval)", fsyncPolicy)
	}
	return nil
}

// kindOf renders a dataset spec's kind for log lines.
func kindOf(sp spec.Dataset) string {
	if sp.Weighted {
		return "weighted"
	}
	return "unweighted"
}

// bootDatasets resolves the boot dataset list: the -config file when
// given (its partitions, if any, belong to irsrouter and are skipped),
// the -datasets specs otherwise. A config with no datasets is a boot
// error — an irsd serving nothing is a misconfiguration, not a choice.
func bootDatasets(config, datasets string) ([]spec.Dataset, error) {
	if config == "" {
		return spec.ParseDatasets(datasets)
	}
	f, err := spec.Load(config)
	if err != nil {
		return nil, err
	}
	if len(f.Datasets) == 0 {
		return nil, fmt.Errorf("config %s: no datasets", config)
	}
	return f.Datasets, nil
}

// addDatasetList registers the boot datasets concurrently (bounded by
// recoverConc; 0 means GOMAXPROCS): each durable dataset owns its
// directory and registration is mutex-protected, so a daemon serving many
// datasets boots in the time of its largest recovery, not their sum.
func addDatasetList(s *server.Server, logger *slog.Logger, list []spec.Dataset, shards int, seed uint64, preload int, dataDir string, policy server.SyncPolicy, fsyncIvl time.Duration, recoverConc int) error {
	if recoverConc <= 0 {
		recoverConc = runtime.GOMAXPROCS(0)
	}
	sem := make(chan struct{}, recoverConc)
	errs := make([]error, len(list))
	var wg sync.WaitGroup
	for i, sp := range list {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			errs[i] = addDataset(s, logger, sp, shards, seed, preload, dataDir, policy, fsyncIvl)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// reloadConfig applies the config file against the live registry: datasets
// named by the file but not registered are created (through the same
// provisioner the admin endpoint uses), registered datasets the file no
// longer names are drained and dropped (durable ones with a final
// compacting snapshot). The reload is atomic with respect to validation —
// an unreadable or malformed file, an empty dataset list, or a kind
// change on a live dataset rejects the whole file with an error and the
// running configuration stays exactly as it was. A drop that fails after
// validation is also reported as an error, with the rest applied.
//
// The file is authoritative: a dataset added at runtime via POST /datasets
// but absent from the file is dropped by the next reload. Keep the file
// and the admin surface in agreement, or use only one of them.
func reloadConfig(s *server.Server, logger *slog.Logger, path string) error {
	list, err := bootDatasets(path, "")
	if err != nil {
		return err
	}
	cur := make(map[string]string) // live name -> kind
	for _, ds := range s.Stats().Datasets {
		cur[ds.Name] = ds.Kind
	}
	want := make(map[string]bool, len(list))
	for _, d := range list {
		want[d.Name] = true
		if kind, live := cur[d.Name]; live && (kind == "weighted") != d.Weighted {
			return fmt.Errorf("dataset %q: cannot change kind %s -> %s across a reload (drop it first)", d.Name, kind, kindOf(d))
		}
	}
	// Adds go first so a failing add can roll back to the pre-reload
	// registry before anything was dropped.
	var added, dropped []string
	for _, d := range list {
		if _, live := cur[d.Name]; live {
			continue
		}
		if err := s.AddDataset(d.Name, d.Weighted); err != nil {
			for _, name := range added {
				if rerr := s.RemoveDataset(name, false); rerr != nil {
					logger.Error("rollback drop failed", "dataset", name, "err", rerr)
				}
			}
			return fmt.Errorf("dataset %q: %w", d.Name, err)
		}
		added = append(added, d.Name)
	}
	var dropErrs []error
	for name := range cur {
		if want[name] {
			continue
		}
		// The final snapshot both compacts the WAL and makes the drop's
		// drain durable in one segment-bounded unit.
		if err := s.RemoveDataset(name, true); err != nil {
			dropErrs = append(dropErrs, fmt.Errorf("drop %q: %w", name, err))
			continue
		}
		dropped = append(dropped, name)
	}
	logger.Info("config applied", "config", path, "added", added, "dropped", dropped, "datasets", len(list))
	return errors.Join(dropErrs...)
}

// addDataset registers one dataset: recovered from <dataDir>/<name> and
// durable when dataDir is set, memory-only otherwise. A preload applies
// only to a dataset with no history at all — a restart must not re-preload
// on top of recovered data, and a recovered dataset that happens to be
// empty (everything deliberately deleted) must stay empty. It bypasses the
// WAL, so on a durable dataset an immediate snapshot makes it durable —
// all before the listener starts.
func addDataset(s *server.Server, logger *slog.Logger, sp spec.Dataset, shards int, seed uint64, preload int, dataDir string, policy server.SyncPolicy, fsyncIvl time.Duration) error {
	name, durable := sp.Name, dataDir != ""
	opts := server.DurableOptions{
		Dir:          filepath.Join(dataDir, name),
		Sync:         policy,
		SyncInterval: fsyncIvl,
		Shards:       shards,
		Seed:         seed,
	}
	rng := irs.NewRNG(seed)
	var rec server.Recovery
	var err error
	var fill func() error
	var size func() int
	if sp.Weighted {
		var w *irs.WeightedConcurrent[float64]
		if durable {
			w, rec, err = s.AddDurableWeighted(name, opts)
		} else {
			w = irs.NewWeightedConcurrent[float64](shards, seed)
			err = s.AddWeighted(name, w)
		}
		fill = func() error { return w.InsertBatch(preloadItems(rng, preload)) }
		size = func() int { return w.Len() }
	} else {
		var c *irs.Concurrent[float64]
		if durable {
			c, rec, err = s.AddDurableUnweighted(name, opts)
		} else {
			c = irs.NewConcurrentSeeded[float64](shards, seed)
			err = s.AddUnweighted(name, c)
		}
		fill = func() error { c.InsertBatch(preloadKeys(rng, preload)); return nil }
		size = func() int { return c.Len() }
	}
	if err != nil {
		return fmt.Errorf("dataset %q: %w", name, err)
	}
	if preload > 0 && rec.SnapshotSeq == 0 && rec.RecordsReplayed == 0 {
		if err := fill(); err != nil {
			return fmt.Errorf("dataset %q: preload: %w", name, err)
		}
		if durable {
			if _, err := s.Snapshot(name); err != nil {
				return fmt.Errorf("dataset %q: preload snapshot: %w", name, err)
			}
		}
	}
	if !durable {
		logger.Info("dataset registered", "dataset", name, "kind", kindOf(sp), "shards", shards, "preload", preload)
		return nil
	}
	logger.Info("dataset recovered", "dataset", name, "kind", kindOf(sp), "items", size(),
		"snapshot_seq", rec.SnapshotSeq, "snapshot_entries", rec.SnapshotEntries,
		"wal_records", rec.RecordsReplayed, "torn_tail", rec.TornTail)
	return nil
}

func preloadKeys(rng *irs.RNG, n int) []float64 {
	keys := make([]float64, n)
	for i := range keys {
		keys[i] = rng.Float64Range(0, 1e6)
	}
	return keys
}

func preloadItems(rng *irs.RNG, n int) []irs.WeightedItem[float64] {
	items := make([]irs.WeightedItem[float64], n)
	for i := range items {
		items[i] = irs.WeightedItem[float64]{Key: rng.Float64Range(0, 1e6), Weight: 1 + rng.Float64()}
	}
	return items
}
