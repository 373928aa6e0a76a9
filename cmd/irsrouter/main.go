// Command irsrouter is the IRS cluster router: it fronts a set of irsd
// nodes, each owning one contiguous key range, and serves the exact same
// protocols a single node speaks — HTTP/JSON, HTTP binary frames and the
// irsnet TCP transport, all on -addr (-tcp-addr adds an irsnet-only
// listener) — so clients talk to a cluster exactly as they talk to one
// daemon. DESIGN.md "Cluster (extension)"
// describes the exact cross-partition split and the failure contract;
// "Daemon runtime" the process lifecycle (scraped stdout lines, signals,
// drain order, exit codes) it shares with irsd through internal/daemon.
//
//	irsrouter -addr 127.0.0.1:9090 \
//	  -partitions '127.0.0.1:8081@0:1e6,127.0.0.1:8082@1e6:2e6,127.0.0.1:8083@2e6:+inf' \
//	  -datasets events
//
// Partitions are "addr@lo:hi" specs (internal/spec grammar): contiguous
// ascending key ranges, bounds accepting -inf/+inf. Each node must serve
// the configured datasets; the router speaks irsnet to the partition
// address, which is the node's -addr (or its -tcp-addr). Upgrade nodes
// before routers: spanning samples use frame kind 0x07, which older nodes
// reject.
//
// With -config the topology (partition lines and dataset lines, same
// grammar) comes from a config file instead of -partitions/-datasets, and
// SIGHUP re-reads it and swaps the partition map atomically; see
// reloadConfig. The per-partition key/mass gauges on /metrics refresh
// every gaugeRefresh.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"time"

	"github.com/irsgo/irs/client"
	"github.com/irsgo/irs/internal/cluster"
	"github.com/irsgo/irs/internal/daemon"
	"github.com/irsgo/irs/internal/spec"
	"github.com/irsgo/irs/server"
)

// version is the build identity reported by /stats, /metrics, and the
// boot log; release builds stamp it with
//
//	go build -ldflags "-X main.version=v1.2.3" ./cmd/irsrouter
var version = "dev"

// gaugeRefresh is the cadence of the per-partition key/mass gauges.
const gaugeRefresh = 15 * time.Second

func main() { os.Exit(daemon.Main(app())) }

// app is irsrouter's half of the daemon: its flags, its topology boot, its
// map-swapping reload and the partition-gauge refresh job.
func app() daemon.App {
	fs := flag.NewFlagSet("irsrouter", flag.ContinueOnError)
	var (
		partitions = fs.String("partitions", "", "comma-separated addr@lo:hi partition specs, contiguous and ascending (required unless -config)")
		datasets   = fs.String("datasets", "demo", "comma-separated name[:weighted|:unweighted] specs the cluster serves")
		timeout    = fs.Duration("node-timeout", 10*time.Second, "per-node request deadline (0 = none)")
	)
	build := func(c *daemon.Common, logger *slog.Logger) (daemon.Instance, error) {
		topo, err := bootTopology(c.Config, *partitions, *datasets)
		if err != nil {
			return daemon.Instance{}, err
		}
		m, conns, names, err := buildTopology(topo)
		if err != nil {
			return daemon.Instance{}, err
		}
		router, err := cluster.NewRouter(m, conns, cluster.Options{
			Datasets: names,
			Seed:     c.Seed,
			Timeout:  *timeout,
		})
		if err != nil {
			return daemon.Instance{}, err
		}
		for i := 0; i < router.Map().Len(); i++ {
			p := router.Map().At(i)
			logger.Info("partition", "index", i, "addr", p.Addr, "lo", p.Lo, "hi", p.Hi)
		}
		// Closing the proxy closes the router, which releases the node
		// connections.
		s := server.NewProxy(router)
		// Stats refreshes the map's cached per-partition (count, mass).
		// Prime it once, best-effort: a node still booting must not fail the
		// router's boot — requests to it answer "unavailable" until it appears.
		refreshGauges := func() { _ = router.Stats() }
		refreshGauges()
		inst := daemon.Instance{Server: s, Jobs: []daemon.Job{{Every: gaugeRefresh, Run: refreshGauges}}}
		if c.Config != "" {
			inst.Reload = func() error { return reloadConfig(router, logger, c.Config) }
		}
		return inst, nil
	}
	return daemon.App{
		Flags:          fs,
		Version:        version,
		Addr:           "127.0.0.1:9090",
		ConfigReplaces: []string{"partitions", "datasets"},
		Validate:       func(c *daemon.Common) error { return validateFlags(c.Config, *partitions) },
		Build:          build,
	}
}

// bootTopology resolves the boot topology: the -config file when given,
// the -partitions/-datasets flags otherwise — same grammar either way.
func bootTopology(config, partitionSpecs, datasetSpecs string) (spec.File, error) {
	if config == "" {
		pspecs, err := spec.ParsePartitions(partitionSpecs)
		if err != nil {
			return spec.File{}, err
		}
		dspecs, err := spec.ParseDatasets(datasetSpecs)
		if err != nil {
			return spec.File{}, err
		}
		return spec.File{Datasets: dspecs, Partitions: pspecs}, nil
	}
	f, err := spec.Load(config)
	if err != nil {
		return spec.File{}, err
	}
	if len(f.Partitions) == 0 {
		return spec.File{}, fmt.Errorf("config %s: no partitions", config)
	}
	if len(f.Datasets) == 0 {
		return spec.File{}, fmt.Errorf("config %s: no datasets", config)
	}
	return f, nil
}

// buildTopology dials one irsnet connection per partition and validates
// the map. Dialing is lazy, so a node that is still booting does not fail
// the build; map validation (contiguous ascending ranges) is not
// lazy — a malformed topology never gets installed. On error, any
// connections already dialed are closed.
func buildTopology(f spec.File) (*cluster.Map, []client.Conn, []string, error) {
	parts := make([]cluster.Partition, len(f.Partitions))
	conns := make([]client.Conn, 0, len(f.Partitions))
	closeAll := func() {
		for _, c := range conns {
			_ = c.Close()
		}
	}
	for i, ps := range f.Partitions {
		parts[i] = cluster.Partition{Addr: ps.Addr, Lo: ps.Lo, Hi: ps.Hi}
		c, err := client.Dial(ps.Addr, client.EncodingTCP)
		if err != nil {
			closeAll()
			return nil, nil, nil, fmt.Errorf("partition %d (%s): %w", i, ps.Addr, err)
		}
		conns = append(conns, c)
	}
	m, err := cluster.New(parts)
	if err != nil {
		closeAll()
		return nil, nil, nil, err
	}
	return m, conns, f.DatasetNames(), nil
}

// reloadConfig rebuilds the topology from the config file and swaps it
// into the router. Everything validates before the swap — an unreadable
// file, a malformed map, or a failed dial rejects the reload whole with an
// error and the router keeps serving the old topology.
func reloadConfig(router *cluster.Router, logger *slog.Logger, path string) error {
	f, err := bootTopology(path, "", "")
	if err != nil {
		return err
	}
	m, conns, names, err := buildTopology(f)
	if err != nil {
		return err
	}
	if err := router.SetMap(m, conns, names); err != nil {
		for _, c := range conns {
			_ = c.Close()
		}
		return err
	}
	// Prime the new map's partition gauges, best-effort.
	_ = router.Stats()
	logger.Info("topology swapped", "config", path, "partitions", m.Len(), "datasets", names, "map_epoch", router.Epoch())
	return nil
}

// validateFlags rejects a router with no topology source before any
// connection is dialed.
func validateFlags(config, partitions string) error {
	if config == "" && partitions == "" {
		return errors.New("-partitions is required (comma-separated addr@lo:hi specs), or give -config")
	}
	return nil
}
