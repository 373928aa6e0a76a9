package main

import (
	"github.com/irsgo/irs/benchmark/layers"
	"github.com/irsgo/irs/benchmark/loadgen"
	"github.com/irsgo/irs/client"
)

// workload is one traffic mix. Names are fixed: later issues cite them.
type workload struct {
	name string
	why  string // one sentence: what the workload is for

	open    bool // open loop at rate req/s; otherwise closed loop with callers
	rate    int
	callers int

	encoding     string // client.Dial encoding of the measured traffic
	t            int    // samples per request
	selLo, selHi float64
	durable      bool   // -data-dir, -fsync always; 3 samples then 1 write per caller
	cluster      bool   // irsrouter over two irsd nodes split at the median key
	root         string // the layers chain that is this workload's budget
}

// workloads in the order -workload all runs them.
var workloads = []workload{
	{
		name: "sample_light",
		why:  "open loop 2000 req/s, irsnet, t=16, selectivity 0.01-1%: fixed per-request cost (coalescer wait, wake-ups, syscalls) is nearly all of the latency, so transport work shows and engine work must not",
		open: true, rate: 2000, encoding: client.EncodingTCP, t: 16, selLo: 1e-4, selHi: 1e-2, root: layers.RootIrsnet,
	},
	{
		name:    "sample_heavy",
		why:     "closed loop, 64 callers on 2 pipelined irsnet connections, t=1024, selectivity 10-100%: draw, encode and socket write dominate and batches run full, so engine, codec and batching work shows as capacity",
		callers: 64, encoding: client.EncodingTCP, t: 1024, selLo: 0.1, selHi: 1, root: layers.RootIrsnet,
	},
	{
		name:    "sample_json",
		why:     "closed loop, 2 callers on 2 HTTP/1.1 connections, JSON, t=256, selectivity 1-10%: the JSON codec and HTTP handlers do most of the work; the only coverage of the human-facing transport",
		callers: 2, encoding: client.EncodingJSON, t: 256, selLo: 1e-2, selHi: 0.1, root: layers.RootHTTP,
	},
	{
		name:    "mixed_durable",
		why:     "closed loop, 32 callers over irsnet on a durable dataset (-fsync always), each 3 samples (t=64) then one 8-key insert or delete: writes beside reads plus the WAL, so a read gain bought with writer cost shows, and a kill -9 restart must recover every acknowledged key",
		callers: 32, encoding: client.EncodingTCP, t: 64, selLo: 1e-3, selHi: 0.1, durable: true, root: layers.RootIrsnet,
	},
	{
		name: "cluster_span",
		why:  "open loop 1000 req/s, irsnet to an irsrouter (default -node-encoding) over two irsd nodes split at the median key, t=64, half the ranges inside one partition and half spanning both: the only traffic through internal/cluster and the binary-HTTP leg",
		open: true, rate: 1000, encoding: client.EncodingTCP, t: 64, selLo: 1e-3, selHi: 0.1, cluster: true, root: layers.RootCluster,
	},
}

// ranges is the workload's request stream over keys: request i of a seed
// is the same in the daemons' run and in the traced replay.
func (w workload) ranges(seed uint64, keys []float64) loadgen.Ranges {
	r := loadgen.Ranges{Seed: seed, Keys: keys, SelLo: w.selLo, SelHi: w.selHi, T: w.t}
	if w.cluster {
		r.Split = len(keys) / 2
	}
	return r
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}
