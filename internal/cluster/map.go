// Package cluster is the range-partitioned serving tier: a partition map
// assigning contiguous key ranges to node addresses, and a Router that
// satisfies the single-node serving surface (server.Backend) by fanning
// requests out to the nodes owning each key range.
//
// The router's sampling is exact, not approximate: a cross-partition
// sample request is one fan-out in which each overlapping node answers
// min(t, prefetch) i.i.d. samples of its clip together with the clip's
// in-range (count, mass), read under the same shard locks. The router then
// runs internal/split's construction — the one the in-process sharded
// structures run over their shards — with the nodes as the parts, taking
// the first tally of each node's samples and topping up, with one more
// call, any node whose tally exceeds prefetch; so the answer is distributed
// exactly as a single node holding the union would answer. The argument,
// prefix rule included, is stated once, in internal/split's package
// comment. Any failed leg fails the request whole.
//
// The router is transport-agnostic: it speaks only the client.Conn
// interface, so nodes may be reached over HTTP/JSON, HTTP binary, or the
// persistent TCP transport without the router knowing which.
package cluster

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"
)

// ErrBadMap rejects an invalid partition map: empty, out of order,
// overlapping, or gapped.
var ErrBadMap = errors.New("cluster: invalid partition map")

// Partition assigns one contiguous key range to one node. The partition
// owns keys k with Lo <= k < Hi — except the last partition in a map,
// which also owns k == Hi, so a map covers the closed interval
// [first.Lo, last.Hi] with every key owned by exactly one node. Lo may be
// -Inf and (on the last partition) Hi may be +Inf.
type Partition struct {
	Addr   string  // node address, as dialed by client.Dial
	Lo, Hi float64 // owned key range; see ownership rule above
}

// Map is an immutable ordered partition table plus a mutable cache of
// per-partition (key count, sampling mass) figures refreshed from node
// stats. The topology never changes after New; only the cached stats do.
type Map struct {
	parts []Partition

	mu        sync.RWMutex
	counts    []int     // cached keys per partition, from the last refresh
	masses    []float64 // cached sampling mass per partition
	refreshed time.Time // zero until the first refresh
}

// New validates and builds a partition map. Partitions must be given in
// ascending key order, each with Lo < Hi, and exactly contiguous:
// parts[i+1].Lo == parts[i].Hi. (Exact contiguity is what makes the
// half-open ownership rule partition the key space with no gap and no
// double-ownership.)
func New(parts []Partition) (*Map, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("%w: no partitions", ErrBadMap)
	}
	for i, p := range parts {
		if p.Addr == "" {
			return nil, fmt.Errorf("%w: partition %d has no address", ErrBadMap, i)
		}
		if math.IsNaN(p.Lo) || math.IsNaN(p.Hi) || !(p.Lo < p.Hi) {
			return nil, fmt.Errorf("%w: partition %d (%s) has range [%v, %v], want Lo < Hi", ErrBadMap, i, p.Addr, p.Lo, p.Hi)
		}
		if i > 0 && parts[i-1].Hi != p.Lo {
			return nil, fmt.Errorf("%w: partition %d (%s) starts at %v, want %v (ranges must be contiguous and ascending)",
				ErrBadMap, i, p.Addr, p.Lo, parts[i-1].Hi)
		}
	}
	m := &Map{
		parts:  append([]Partition(nil), parts...),
		counts: make([]int, len(parts)),
		masses: make([]float64, len(parts)),
	}
	return m, nil
}

// Len returns the partition count.
func (m *Map) Len() int { return len(m.parts) }

// At returns partition i.
func (m *Map) At(i int) Partition { return m.parts[i] }

// upper returns the inclusive upper bound of partition i's owned range:
// Hi itself for the last partition, the largest float64 below Hi
// otherwise. Node queries are inclusive on both ends, so this is the
// bound to probe and sample partition i with.
func (m *Map) upper(i int) float64 {
	if i == len(m.parts)-1 {
		return m.parts[i].Hi
	}
	return math.Nextafter(m.parts[i].Hi, math.Inf(-1))
}

// Route returns the index of the partition owning key, or -1 when key
// falls outside the map's coverage (or is NaN).
func (m *Map) Route(key float64) int {
	if math.IsNaN(key) || key < m.parts[0].Lo || key > m.parts[len(m.parts)-1].Hi {
		return -1
	}
	// First partition whose Hi exceeds key owns it; the last partition
	// additionally owns key == Hi.
	i := sort.Search(len(m.parts), func(i int) bool { return key < m.parts[i].Hi })
	if i == len(m.parts) {
		return len(m.parts) - 1 // key == last.Hi
	}
	return i
}

// Overlap returns the index range [first, last] of partitions whose owned
// range intersects the inclusive query [lo, hi]. When nothing overlaps
// (query entirely outside coverage) it returns first > last.
func (m *Map) Overlap(lo, hi float64) (first, last int) {
	n := len(m.parts)
	// First partition whose inclusive upper bound reaches lo.
	first = sort.Search(n, func(i int) bool { return m.upper(i) >= lo })
	// Last partition whose lower bound does not exceed hi.
	last = sort.Search(n, func(i int) bool { return m.parts[i].Lo > hi }) - 1
	return first, last
}

// Clip intersects the inclusive query [lo, hi] with partition i's owned
// range, returning inclusive bounds. ok is false when they don't meet.
func (m *Map) Clip(i int, lo, hi float64) (clo, chi float64, ok bool) {
	clo = math.Max(lo, m.parts[i].Lo)
	chi = math.Min(hi, m.upper(i))
	return clo, chi, clo <= chi
}

// Update caches partition i's refreshed (key count, sampling mass) and
// stamps the refresh time.
func (m *Map) Update(i, count int, mass float64, at time.Time) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.counts[i] = count
	m.masses[i] = mass
	m.refreshed = at
}

// Cached returns partition i's last refreshed (key count, sampling mass)
// and when any partition was last refreshed (zero before the first
// refresh). The cache serves observability — the router's sampling split
// probes live (count, mass) per request, because a boundary partition cut
// mid-range by the query must be weighted by its in-range mass, which no
// whole-partition cache can supply.
func (m *Map) Cached(i int) (count int, mass float64, refreshed time.Time) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.counts[i], m.masses[i], m.refreshed
}
