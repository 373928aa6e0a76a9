// Package chunks implements the dynamic substrate of the Hu–Qiao–Tao
// independent range sampling structure: a two-level chunked sorted list.
//
// Keys are kept in sorted order inside chunks (small arrays of capacity 2s,
// where s = Θ(log n)); consecutive chunks are grouped into groups of at most
// 2s chunks; a flat directory holds the groups in order. The parameter s is
// retuned by a global rebuild whenever n doubles or halves, so the structure
// is always within a constant factor of its intended geometry.
//
// The directory is stored inline: List.groups is a []group, and each group's
// chunk headers are a []chunk whose entries are the key slices themselves
// (each keeping capacity 2s+1). A probe for groups[g].chunks[c].keys[e]
// therefore costs three dependent loads — the group header, the chunk
// header, the key — and splits, merges and redistributions move 24-byte
// chunk headers and 32-byte group headers instead of pointers.
//
// The point of the two levels is uniform sampling by rejection: a query
// range maps to a run of groups; probing a uniformly random (group, chunk
// slot, element slot) triple and rejecting empty or out-of-range probes
// yields an exactly uniform in-range element, and the fill invariants below
// guarantee Ω(1) acceptance probability, so a sample costs O(1) expected
// time after the O(log n) search that locates the run. This realizes the
// "linear space, O(log n + k) expected query, O(log n) update" bounds
// attributed to the PODS 2014 paper.
//
// Every draw goes through one blocked probe kernel (kernel.step). A probe's
// cost is memory latency, not instructions, so the kernel draws blocks of
// up to blockSize probes — never more than the samples still missing — and
// resolves each block stage by stage: every group load, then every chunk
// load, then every key load, accepting in draw order. The loads of one
// stage are independent of each other, so an out-of-order core keeps them
// in flight together instead of paying one miss after another, and the
// next block is drawn while the current block's keys load. Blocking is
// exact: each probe draws its whole triple from the RNG — as one uniform
// integer below span·2s·2s, which is also the position's identifier — in
// the order a one-probe-at-a-time loop would; acceptance is decided per
// probe in draw order; and no probe is drawn that such a loop would not
// also draw. So the accepted samples, the probe counts and the generator's
// final state are bit-identical to the scalar loop's.
//
// Invariants (with s fixed between rebuilds):
//
//   - every chunk holds between s/2 and 2s keys, except that a list with a
//     single chunk may hold fewer;
//   - every group holds between s/2 and 2s chunks, except that a list with
//     a single group may hold fewer;
//   - keys are globally sorted: every key in chunk i precedes every key in
//     chunk i+1 of the same group, and every key in group j precedes every
//     key in group j+1;
//   - group.count equals the number of keys in the group, and the Fenwick
//     tree over group counts is consistent with the directory.
//
// Updates repair invariant violations locally: a chunk that exceeds 2s keys
// splits in half; a chunk that drops below s/2 keys merges with a sibling
// (or the pair redistributes if the merge would overflow); the same rules
// apply one level up to groups. All repairs are O(s) = O(log n) except
// directory-level changes, which additionally rebuild the O(n/s²)-entry
// Fenwick tree — a cost that amortizes to o(1) per update because a group
// split or merge requires Ω(s²) updates to recur.
//
// Sorted batches (InsertSorted) skip most of the search: each key after
// the first is found by a finger search forward from where the previous
// key went — a gallop over the group last keys, then over the chunk last
// keys, then a binary search in the chunk — which costs O(log d)
// comparisons for a gap of d keys, so a batch of k keys costs
// O(k log(n/k)) instead of O(k log n). The keys still go in one at a time
// through the same repair path, so the list a batch builds is exactly the
// one per-key Insert builds: its geometry, footprint and probe counts do
// not depend on how the keys arrived. Insert is the one-key batch.
package chunks

import (
	"cmp"
	"errors"
	"fmt"
	"math/bits"
	"unsafe"

	"github.com/irsgo/irs/internal/fenwick"
	"github.com/irsgo/irs/internal/xrand"
)

// ErrUnsorted is returned by NewFromSorted when the input is not sorted
// (see IsSorted).
var ErrUnsorted = errors.New("chunks: input keys are not sorted")

// minS is the smallest chunk parameter ever used; it keeps constant factors
// sane for tiny lists.
const minS = 8

type chunk[K cmp.Ordered] struct {
	keys []K // sorted; capacity 2s+1 so one overflowing insert never reallocates
}

type group[K cmp.Ordered] struct {
	chunks []chunk[K] // in key order; capacity 2s+1
	count  int        // total keys across chunks
}

// List is the two-level chunked sorted list. It stores an ordered multiset
// of keys. The zero value is not usable; call New or NewFromSorted.
// A List is not safe for concurrent mutation; concurrent readers are safe
// as long as no writer runs.
//
// Groups live inline in the directory, so a *group taken from l.groups is
// invalidated by any append to l.groups; the update paths below re-index
// after every directory change.
type List[K cmp.Ordered] struct {
	groups     []group[K]
	counts     *fenwick.Counts // per-group key counts, same order as groups
	n          int
	s          int
	nAtRebuild int
	scratch    []K // reused by chunk redistribution

	// Ablation knobs (see the E14/E15 experiments). Production code leaves
	// both at their zero values.
	fixedS    bool // keep s pinned across rebuilds
	noCollect bool // disable the short-run collect fast path
}

// New returns an empty list.
func New[K cmp.Ordered]() *List[K] {
	l := &List[K]{s: minS}
	l.rebuildFenwick()
	return l
}

// NewFromSorted builds a list from keys, which must be in non-decreasing
// order. The input slice is not retained. Construction is O(n).
func NewFromSorted[K cmp.Ordered](keys []K) (*List[K], error) {
	if !IsSorted(keys) {
		return nil, ErrUnsorted
	}
	l := &List[K]{}
	l.build(keys)
	return l, nil
}

// IsSorted reports whether keys are in non-decreasing order. NaN is in no
// order, so a slice holding one is not sorted.
func IsSorted[K cmp.Ordered](keys []K) bool {
	for i := range keys {
		// keys[i] <= keys[i] fails only for NaN.
		if !(keys[max(i-1, 0)] <= keys[i]) {
			return false
		}
	}
	return true
}

// Len returns the number of stored keys.
func (l *List[K]) Len() int { return l.n }

// S returns the current chunk parameter (exposed for tests and experiments).
func (l *List[K]) S() int { return l.s }

// chooseS returns the chunk parameter for a list of n keys.
func chooseS(n int) int {
	s := bits.Len(uint(n)) // ceil(log2(n+1))
	if s < minS {
		s = minS
	}
	return s
}

// NewFromSortedWithS builds a list with the chunk parameter pinned to s
// instead of the Θ(log n) default; rebuilds keep the pinned value. This is
// the knob behind the E14 ablation (sensitivity of query and update cost to
// the chunk size); s must be at least 4.
func NewFromSortedWithS[K cmp.Ordered](keys []K, s int) (*List[K], error) {
	if s < 4 {
		return nil, errors.New("chunks: pinned s must be >= 4")
	}
	if !IsSorted(keys) {
		return nil, ErrUnsorted
	}
	l := &List[K]{fixedS: true, s: s}
	l.build(keys)
	return l, nil
}

// SetCollectFallback enables or disables the short-run collect fast path
// (enabled by default). With the fallback off, ranges spanning fewer than
// three chunks are sampled by rejection over the chunk run, whose
// acceptance rate can drop to Θ(1/s) — the E15 ablation quantifies why the
// fast path exists. Pending runs are not affected.
func (l *List[K]) SetCollectFallback(enabled bool) { l.noCollect = !enabled }

// build (re)constructs the whole structure from sorted keys.
func (l *List[K]) build(keys []K) {
	n := len(keys)
	l.n = n
	l.nAtRebuild = n
	if !l.fixedS {
		l.s = chooseS(n)
	}
	l.groups = nil
	if n == 0 {
		l.rebuildFenwick()
		return
	}
	fill := l.s + l.s/2 // target fill 1.5s, for chunks and groups alike
	numChunks := (n + fill - 1) / fill
	numGroups := (numChunks + fill - 1) / fill
	// Distribute keys evenly so every chunk gets floor or ceil of
	// n/numChunks, which is >= s/2 whenever numChunks > 1 because fill > s;
	// chunks are spread over groups the same way.
	kBase, kExtra := n/numChunks, n%numChunks
	cBase, cExtra := numChunks/numGroups, numChunks%numGroups
	l.groups = make([]group[K], numGroups)
	ci, idx := 0, 0
	for gi := range l.groups {
		g := &l.groups[gi]
		nc := cBase
		if gi < cExtra {
			nc++
		}
		g.chunks = make([]chunk[K], nc, 2*l.s+1)
		for c := range g.chunks {
			sz := kBase
			if ci < kExtra {
				sz++
			}
			g.chunks[c].keys = append(make([]K, 0, 2*l.s+1), keys[idx:idx+sz]...)
			idx += sz
			g.count += sz
			ci++
		}
	}
	l.rebuildFenwick()
}

// rebuildFenwick refreshes the per-group count index. Called whenever the
// group directory changes shape.
func (l *List[K]) rebuildFenwick() {
	counts := make([]int, len(l.groups))
	for i := range l.groups {
		counts[i] = l.groups[i].count
	}
	l.counts = fenwick.NewCountsFrom(counts)
}

// maybeRebuild retunes s and re-packs everything once n has drifted a
// factor of two from the last rebuild, and reports whether it did.
// Amortized O(1) per update.
func (l *List[K]) maybeRebuild() bool {
	if l.n <= 32 || (l.n <= 2*l.nAtRebuild && 2*l.n >= l.nAtRebuild) {
		return false
	}
	keys := l.AppendKeys(make([]K, 0, l.n))
	l.build(keys)
	return true
}

// pos addresses one key: groups[g].chunks[c].keys[e].
type pos struct{ g, c, e int }

// lastKey returns the largest key in the group.
func (g *group[K]) lastKey() K {
	c := &g.chunks[len(g.chunks)-1]
	return c.keys[len(c.keys)-1]
}

// firstGE returns the position of the first key >= bound, or ok=false if
// every key is smaller. O(log n): binary search over groups, then chunks,
// then keys.
func (l *List[K]) firstGE(bound K) (pos, bool) { return l.search(bound, false) }

// firstGT returns the position of the first key > bound, or ok=false.
func (l *List[K]) firstGT(bound K) (pos, bool) { return l.search(bound, true) }

// search finds the first key >= bound (strict=false) or > bound
// (strict=true).
func (l *List[K]) search(bound K, strict bool) (pos, bool) {
	if l.n == 0 {
		return pos{}, false
	}
	// After returns true when k is on the "found" side of the boundary.
	after := func(k K) bool {
		if strict {
			return k > bound
		}
		return k >= bound
	}
	// First group whose last key is on the found side.
	lo, hi := 0, len(l.groups)
	for lo < hi {
		mid := (lo + hi) / 2
		if after(l.groups[mid].lastKey()) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo == len(l.groups) {
		return pos{}, false
	}
	g := lo
	grp := &l.groups[g]
	// First chunk whose last key is on the found side.
	lo, hi = 0, len(grp.chunks)
	for lo < hi {
		mid := (lo + hi) / 2
		ck := grp.chunks[mid].keys
		if after(ck[len(ck)-1]) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	c := lo
	keys := grp.chunks[c].keys
	// First key on the found side.
	lo, hi = 0, len(keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if after(keys[mid]) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return pos{g, c, lo}, true
}

// firstGTFrom is firstGT for a bound that no key before position f
// exceeds. It gallops forward from f over the group last keys, then — from
// f's chunk if the answer is in f's group — over the chunk last keys, and
// binary searches the chunk it lands in. A gallop costs O(log d)
// comparisons when the answer is d steps past its start.
func (l *List[K]) firstGTFrom(f pos, bound K) (pos, bool) {
	g := gallop(f.g, len(l.groups), func(i int) bool { return l.groups[i].lastKey() > bound })
	if g == len(l.groups) {
		return pos{}, false
	}
	chunks := l.groups[g].chunks
	c := 0
	if g == f.g {
		c = f.c
	}
	c = gallop(c, len(chunks), func(i int) bool {
		keys := chunks[i].keys
		return keys[len(keys)-1] > bound
	})
	keys := chunks[c].keys
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if keys[mid] > bound {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return pos{g, c, lo}, true
}

// gallop returns the first i in [lo, n) for which after(i) holds, or n,
// where after is false before lo and stays true once true. It probes lo,
// lo+1, lo+3, lo+7, ... and binary searches the last step.
func gallop(lo, n int, after func(int) bool) int {
	// Every index before lo fails; hi holds or is n or more.
	hi, step := lo, 1
	for hi < n && !after(hi) {
		lo, hi, step = hi+1, hi+step, 2*step
	}
	hi = min(hi, n)
	for lo < hi {
		mid := (lo + hi) / 2
		if after(mid) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// indexOf returns the number of keys strictly before p. O(s + log n).
func (l *List[K]) indexOf(p pos) int {
	idx := l.counts.PrefixSum(p.g)
	for _, c := range l.groups[p.g].chunks[:p.c] {
		idx += len(c.keys)
	}
	return idx + p.e
}

// Count returns |{k in list : lo <= k <= hi}| in O(log n).
func (l *List[K]) Count(lo, hi K) int {
	a, end, endOK, ok := l.bounds(lo, hi)
	if !ok {
		return 0
	}
	return l.between(a, end, endOK)
}

// bounds finds the first position a of a key in [lo, hi] and the first
// position end past the range, if endOK (else the range runs to the list's
// end). ok is false when no key is in range. Two searches, O(log n).
func (l *List[K]) bounds(lo, hi K) (a, end pos, endOK, ok bool) {
	if l.n == 0 || hi < lo {
		return
	}
	if a, ok = l.firstGE(lo); !ok || l.groups[a.g].chunks[a.c].keys[a.e] > hi {
		return a, end, false, false
	}
	end, endOK = l.firstGT(hi)
	return a, end, endOK, true
}

// between returns the number of keys from a up to end, or up to the list's
// end if !endOK. O(s + log n).
func (l *List[K]) between(a, end pos, endOK bool) int {
	n := l.n
	if endOK {
		n = l.indexOf(end)
	}
	return n - l.indexOf(a)
}

// RankLower returns the number of keys strictly less than key. O(log n).
func (l *List[K]) RankLower(key K) int {
	p, ok := l.firstGE(key)
	if !ok {
		return l.n
	}
	return l.indexOf(p)
}

// RankUpper returns the number of keys less than or equal to key. O(log n).
func (l *List[K]) RankUpper(key K) int {
	p, ok := l.firstGT(key)
	if !ok {
		return l.n
	}
	return l.indexOf(p)
}

// SelectRank returns the key of rank i (0-based, sorted order). It panics
// if i is out of range. O(log n): Fenwick descent to the group, then a
// linear walk over at most 2s chunks.
func (l *List[K]) SelectRank(i int) K {
	if i < 0 || i >= l.n {
		panic("chunks: SelectRank index out of range")
	}
	g := l.counts.Select(i)
	i -= l.counts.PrefixSum(g)
	for _, c := range l.groups[g].chunks {
		if i < len(c.keys) {
			return c.keys[i]
		}
		i -= len(c.keys)
	}
	panic("chunks: group count inconsistent with chunks")
}

// Contains reports whether key occurs at least once.
func (l *List[K]) Contains(key K) bool {
	p, ok := l.firstGE(key)
	if !ok {
		return false
	}
	return l.groups[p.g].chunks[p.c].keys[p.e] == key
}

// Insert adds key to the multiset in O(log n) amortized time.
func (l *List[K]) Insert(key K) { l.InsertSorted([]K{key}) }

// InsertSorted adds every key of keys to the multiset, one at a time and in
// order. Only the first key pays a search from the root: every later key is
// found by a finger search forward from the previous key's position (see
// firstGTFrom), which is O(log d) for a gap of d keys. A sorted batch of k
// keys therefore costs O(k log(n/k)) comparisons instead of O(k log n), and
// cache misses mostly where the batch skips ahead. Each key lands where
// Insert would put it — after any equal keys — and goes through the same
// repair path, so the list is exactly the one per-key Insert of the same
// keys builds.
//
// keys should be in non-decreasing order; a key smaller than its
// predecessor is still inserted correctly, through a search from the root.
func (l *List[K]) InsertSorted(keys []K) {
	var finger pos // where the previous key went
	haveFinger := false
	for i, key := range keys {
		if l.n == 0 {
			first := append(make([]K, 0, 2*l.s+1), key)
			chunks := append(make([]chunk[K], 0, 2*l.s+1), chunk[K]{keys: first})
			l.groups = append(l.groups[:0], group[K]{chunks: chunks, count: 1})
			l.n = 1
			l.rebuildFenwick()
			finger, haveFinger = pos{}, true
			continue
		}
		// Insert after any equal keys. Every key before the previous key's
		// position is <= that key <= this one, so the search may start at
		// the finger.
		var p pos
		var ok bool
		if haveFinger && keys[i-1] <= key {
			p, ok = l.firstGTFrom(finger, key)
		} else {
			p, ok = l.firstGT(key)
		}
		if !ok {
			// Larger than everything: append to the last chunk.
			g := len(l.groups) - 1
			c := len(l.groups[g].chunks) - 1
			p = pos{g, c, len(l.groups[g].chunks[c].keys)}
		}
		grp := &l.groups[p.g]
		ch := &grp.chunks[p.c]
		ch.keys = append(ch.keys, key) // value placeholder; order fixed below
		copy(ch.keys[p.e+1:], ch.keys[p.e:])
		ch.keys[p.e] = key
		grp.count++
		l.n++

		structural := false
		if len(ch.keys) > 2*l.s {
			l.splitChunk(p.g, p.c)
			if len(grp.chunks) > 2*l.s {
				l.splitGroup(p.g) // appends to l.groups: grp is stale from here
				structural = true
			}
		}
		if structural {
			l.rebuildFenwick()
		} else {
			l.counts.Add(p.g, 1)
		}
		// A chunk split leaves the key in chunk p.c or p.c+1, and a group
		// split leaves group p.g's first chunks in place, so p stays a valid
		// start (firstGTFrom only uses p.c inside group p.g); a rebuild
		// moves every key.
		finger = p
		haveFinger = !l.maybeRebuild()
	}
}

// splitChunk splits chunk c of group g into two halves.
func (l *List[K]) splitChunk(g, c int) {
	grp := &l.groups[g]
	left := grp.chunks[c].keys
	mid := len(left) / 2
	right := append(make([]K, 0, 2*l.s+1), left[mid:]...)
	grp.chunks[c].keys = left[:mid]
	grp.chunks = append(grp.chunks, chunk[K]{})
	copy(grp.chunks[c+2:], grp.chunks[c+1:])
	grp.chunks[c+1] = chunk[K]{keys: right}
}

// splitGroup splits group g into two halves. The caller must refresh the
// Fenwick tree.
func (l *List[K]) splitGroup(g int) {
	grp := &l.groups[g]
	mid := len(grp.chunks) / 2
	right := group[K]{chunks: append(make([]chunk[K], 0, 2*l.s+1), grp.chunks[mid:]...)}
	for _, c := range right.chunks {
		right.count += len(c.keys)
	}
	clear(grp.chunks[mid:])
	grp.chunks = grp.chunks[:mid]
	grp.count -= right.count
	l.groups = append(l.groups, group[K]{})
	copy(l.groups[g+2:], l.groups[g+1:])
	l.groups[g+1] = right
}

// Delete removes one occurrence of key, reporting whether one was present.
// O(log n) amortized.
func (l *List[K]) Delete(key K) bool {
	p, ok := l.firstGE(key)
	if !ok {
		return false
	}
	grp := &l.groups[p.g]
	ch := &grp.chunks[p.c]
	if ch.keys[p.e] != key {
		return false
	}
	copy(ch.keys[p.e:], ch.keys[p.e+1:])
	ch.keys = ch.keys[:len(ch.keys)-1]
	grp.count--
	l.n--

	structural := false
	if len(ch.keys) < l.s/2 {
		structural = l.fixChunkUnderflow(p.g, p.c)
	}
	if structural {
		l.rebuildFenwick()
	} else {
		l.counts.Add(p.g, -1)
	}
	if l.n == 0 {
		clear(l.groups)
		l.groups = l.groups[:0]
		l.rebuildFenwick()
		return true
	}
	l.maybeRebuild()
	return true
}

// fixChunkUnderflow repairs chunk c of group g after it dropped below s/2
// keys. It reports whether the group directory changed shape (requiring a
// Fenwick rebuild).
func (l *List[K]) fixChunkUnderflow(g, c int) bool {
	grp := &l.groups[g]
	if len(grp.chunks) == 1 {
		// Single chunk in its group. If this is the only group the small
		// size is allowed; otherwise group invariants (>= s/2 >= 4 chunks)
		// make this unreachable.
		return false
	}
	// Merge or redistribute with an adjacent sibling.
	left := c
	if left == len(grp.chunks)-1 {
		left = c - 1
	}
	a, b := &grp.chunks[left], &grp.chunks[left+1]
	combined := len(a.keys) + len(b.keys)
	if combined <= 2*l.s {
		// Merge b into a, drop b.
		a.keys = append(a.keys, b.keys...)
		grp.chunks = deleteAt(grp.chunks, left+1)
		if len(grp.chunks) < l.s/2 {
			return l.fixGroupUnderflow(g)
		}
		return false
	}
	// Redistribute evenly: both halves land in [s, 1.25s], far from bounds.
	l.scratch = append(l.scratch[:0], a.keys...)
	l.scratch = append(l.scratch, b.keys...)
	mid := combined / 2
	a.keys = append(a.keys[:0], l.scratch[:mid]...)
	b.keys = append(b.keys[:0], l.scratch[mid:]...)
	return false
}

// deleteAt removes s[i], shifting the tail down and clearing the vacated
// last slot so it keeps nothing alive.
func deleteAt[T any](s []T, i int) []T {
	copy(s[i:], s[i+1:])
	clear(s[len(s)-1:])
	return s[:len(s)-1]
}

// fixGroupUnderflow repairs group g after its chunk count dropped below
// s/2. Returns true: every path changes the directory or group contents in
// a way that needs a Fenwick refresh.
func (l *List[K]) fixGroupUnderflow(g int) bool {
	if len(l.groups) == 1 {
		return true // single group may be small; counts still moved
	}
	left := g
	if left == len(l.groups)-1 {
		left = g - 1
	}
	a, b := &l.groups[left], &l.groups[left+1]
	combined := len(a.chunks) + len(b.chunks)
	if combined <= 2*l.s {
		a.chunks = append(a.chunks, b.chunks...)
		a.count += b.count
		l.groups = deleteAt(l.groups, left+1) // b is stale from here
		return true
	}
	// Redistribute chunks evenly.
	mid := combined / 2
	if len(a.chunks) > mid {
		// Move the tail of a to the front of b.
		b.chunks = append(append(make([]chunk[K], 0, 2*l.s+1), a.chunks[mid:]...), b.chunks...)
		clear(a.chunks[mid:])
		a.chunks = a.chunks[:mid]
	} else {
		// Move the front of b to the tail of a.
		take := mid - len(a.chunks)
		a.chunks = append(a.chunks, b.chunks[:take]...)
		kept := copy(b.chunks, b.chunks[take:])
		clear(b.chunks[kept:])
		b.chunks = b.chunks[:kept]
	}
	a.count = 0
	for _, c := range a.chunks {
		a.count += len(c.keys)
	}
	b.count = 0
	for _, c := range b.chunks {
		b.count += len(c.keys)
	}
	return true
}

// AppendRange appends every key in [lo, hi], in sorted order, to dst and
// returns it. O(log n + output).
func (l *List[K]) AppendRange(dst []K, lo, hi K) []K {
	if l.n == 0 || hi < lo {
		return dst
	}
	p, ok := l.firstGE(lo)
	if !ok {
		return dst
	}
	for g := p.g; g < len(l.groups); g++ {
		grp := &l.groups[g]
		c0 := 0
		if g == p.g {
			c0 = p.c
		}
		for c := c0; c < len(grp.chunks); c++ {
			e0 := 0
			if g == p.g && c == p.c {
				e0 = p.e
			}
			for _, k := range grp.chunks[c].keys[e0:] {
				if k > hi {
					return dst
				}
				dst = append(dst, k)
			}
		}
	}
	return dst
}

// AppendKeys appends every key in sorted order to dst and returns it.
func (l *List[K]) AppendKeys(dst []K) []K {
	for gi := range l.groups {
		for _, c := range l.groups[gi].chunks {
			dst = append(dst, c.keys...)
		}
	}
	return dst
}

// VisitKeys hands every key to visit in sorted order, one chunk's key
// slice per call, and stops at the first error visit returns. The slices
// alias the list's storage: visit must not modify or retain them, and the
// list must not change until VisitKeys returns.
func (l *List[K]) VisitKeys(visit func(block []K) error) error {
	for gi := range l.groups {
		for _, c := range l.groups[gi].chunks {
			if err := visit(c.keys); err != nil {
				return err
			}
		}
	}
	return nil
}

// Stats describes the current geometry, for tests and the space experiment.
type Stats struct {
	N      int
	S      int
	Groups int
	Chunks int
}

// GeometryStats returns the current geometry.
func (l *List[K]) GeometryStats() Stats {
	st := Stats{N: l.n, S: l.s, Groups: len(l.groups)}
	for gi := range l.groups {
		st.Chunks += len(l.groups[gi].chunks)
	}
	return st
}

// Footprint estimates the resident size of the structure in bytes,
// accounting for slice capacities, the inline group and chunk headers, and
// the Fenwick index.
func (l *List[K]) Footprint() int64 {
	var k K
	keySize := int64(unsafe.Sizeof(k))
	groupSize := int64(unsafe.Sizeof(group[K]{}))
	chunkSize := int64(unsafe.Sizeof(chunk[K]{}))
	total := int64(unsafe.Sizeof(*l))
	total += int64(cap(l.groups)) * groupSize
	for gi := range l.groups {
		g := &l.groups[gi]
		total += int64(cap(g.chunks)) * chunkSize
		for _, c := range g.chunks {
			total += int64(cap(c.keys)) * keySize
		}
	}
	total += int64(l.counts.Len()+1) * 8 // Fenwick tree array
	total += int64(cap(l.scratch)) * keySize
	return total
}

// Validate checks every structural invariant. Intended for tests; it is
// O(n).
func (l *List[K]) Validate() error {
	if l.n == 0 {
		if len(l.groups) != 0 {
			return errors.New("chunks: empty list with groups")
		}
		return nil
	}
	total := 0
	var prev K
	havePrev := false
	singleGroup := len(l.groups) == 1
	for gi := range l.groups {
		g := &l.groups[gi]
		if len(g.chunks) == 0 {
			return fmt.Errorf("chunks: group %d empty", gi)
		}
		if !singleGroup && (len(g.chunks) < l.s/2 || len(g.chunks) > 2*l.s) {
			return fmt.Errorf("chunks: group %d has %d chunks, want [%d,%d]", gi, len(g.chunks), l.s/2, 2*l.s)
		}
		singleChunk := singleGroup && len(g.chunks) == 1
		gcount := 0
		for ci, c := range g.chunks {
			if len(c.keys) == 0 {
				return fmt.Errorf("chunks: group %d chunk %d empty", gi, ci)
			}
			if !singleChunk && (len(c.keys) < l.s/2 || len(c.keys) > 2*l.s) {
				return fmt.Errorf("chunks: group %d chunk %d has %d keys, want [%d,%d]", gi, ci, len(c.keys), l.s/2, 2*l.s)
			}
			for _, k := range c.keys {
				if !havePrev {
					prev = k
				}
				if !(prev <= k) { // NaN fails every comparison, with itself too
					return fmt.Errorf("chunks: order violation at group %d chunk %d", gi, ci)
				}
				prev, havePrev = k, true
			}
			gcount += len(c.keys)
		}
		if gcount != g.count {
			return fmt.Errorf("chunks: group %d count %d, actual %d", gi, g.count, gcount)
		}
		if got := l.counts.RangeSum(gi, gi+1); got != gcount {
			return fmt.Errorf("chunks: fenwick slot %d = %d, actual %d", gi, got, gcount)
		}
		total += gcount
	}
	if total != l.n {
		return fmt.Errorf("chunks: n = %d, actual %d", l.n, total)
	}
	return nil
}

// Run is a prepared sampling context for one query range. It is valid only
// until the next modification of the list; using it afterwards may return
// samples from a stale or inconsistent view.
type Run[K cmp.Ordered] struct {
	list   *List[K]
	lo, hi K
	mode   runMode
	// groups mode: sample uniformly over groups[gLo..gHi].
	gLo, gHi int
	// chunks mode: chunk run of length nChunks starting at chunk cLo of
	// group gLo and (if it spills over) continuing at chunk 0 of group gHi.
	cLo, nLeft, nChunks int
	// collect mode: the in-range keys, materialized.
	scratch []K
	// Count's input: bounds' first in-range and first past-range positions.
	first, end pos
	endOK      bool
}

type runMode uint8

const (
	modeEmpty runMode = iota
	modeGroups
	modeChunks
	modeCollect
)

// NewRun prepares a sampling context for the inclusive range [lo, hi].
// O(log n). Empty() reports whether the range holds no keys.
func (l *List[K]) NewRun(lo, hi K) *Run[K] {
	r := &Run[K]{list: l, lo: lo, hi: hi, mode: modeEmpty}
	l.InitRun(r, lo, hi)
	return r
}

// InitRun is like NewRun but reuses r's storage (queries in a steady state
// allocate nothing).
func (l *List[K]) InitRun(r *Run[K], lo, hi K) {
	r.list = l
	r.lo, r.hi = lo, hi
	r.mode = modeEmpty
	r.scratch = r.scratch[:0]
	a, end, endOK, ok := l.bounds(lo, hi)
	if !ok {
		return
	}
	r.first, r.end, r.endOK = a, end, endOK
	// b is the last in-range position: the one before end, or the list's
	// last when the range runs to the end.
	var b pos
	if endOK {
		b, _ = l.prevPos(end) // end follows a, so it has a predecessor
	} else {
		b = l.lastPos()
	}
	// Every in-range key lives in groups a.g..b.g.
	if b.g-a.g >= 2 {
		r.mode = modeGroups
		r.gLo, r.gHi = a.g, b.g
		return
	}
	// Chunk run between (a.g, a.c) and (b.g, b.c).
	if a.g == b.g {
		r.nLeft = b.c - a.c + 1
		r.nChunks = r.nLeft
	} else {
		r.nLeft = len(l.groups[a.g].chunks) - a.c
		r.nChunks = r.nLeft + b.c + 1
	}
	r.gLo, r.gHi, r.cLo = a.g, b.g, a.c
	if r.nChunks >= 3 || l.noCollect {
		r.mode = modeChunks
		return
	}
	// At most two chunks contain the range: materialize it.
	r.mode = modeCollect
	for j := 0; j < r.nChunks; j++ {
		for _, k := range r.chunkAt(j).keys {
			if k >= lo && k <= hi {
				r.scratch = append(r.scratch, k)
			}
		}
	}
	if len(r.scratch) == 0 {
		r.mode = modeEmpty
	}
}

// lastPos returns the position of the last key. The list must be nonempty.
func (l *List[K]) lastPos() pos {
	g := len(l.groups) - 1
	c := len(l.groups[g].chunks) - 1
	return pos{g, c, len(l.groups[g].chunks[c].keys) - 1}
}

// prevPos returns the position immediately before p, or ok=false if p is
// the first position.
func (l *List[K]) prevPos(p pos) (pos, bool) {
	if p.e > 0 {
		return pos{p.g, p.c, p.e - 1}, true
	}
	if p.c > 0 {
		return pos{p.g, p.c - 1, len(l.groups[p.g].chunks[p.c-1].keys) - 1}, true
	}
	if p.g > 0 {
		c := len(l.groups[p.g-1].chunks) - 1
		return pos{p.g - 1, c, len(l.groups[p.g-1].chunks[c].keys) - 1}, true
	}
	return pos{}, false
}

// chunkAt returns the j-th chunk of the run (chunk mode addressing). It
// computes the header's address without loading the header.
func (r *Run[K]) chunkAt(j int) *chunk[K] {
	if j < r.nLeft {
		return &r.list.groups[r.gLo].chunks[r.cLo+j]
	}
	return &r.list.groups[r.gHi].chunks[j-r.nLeft]
}

// Empty reports whether the range holds no keys.
func (r *Run[K]) Empty() bool { return r.mode == modeEmpty }

// Count returns the number of in-range keys. It ranks the boundary
// positions InitRun found, searching nothing: O(s + log n), or O(1) when
// the run is empty or materialized.
func (r *Run[K]) Count() int {
	switch r.mode {
	case modeEmpty:
		return 0
	case modeCollect:
		return len(r.scratch)
	}
	return r.list.between(r.first, r.end, r.endOK)
}

// blockSize is the kernel's block: the most probes one stage resolves at
// once. It is enough independent misses to fill a core's miss buffers, and
// its stage arrays stay small enough to live on the stack.
const blockSize = 16

// flight is one block of drawn probes whose key loads have been issued but
// not yet consumed.
type flight[K cmp.Ordered] struct {
	m   int               // probes in the block; 0 when the slot is idle
	id  [blockSize]uint64 // position identifier of each probe
	ok  [blockSize]uint64 // 1 while no slot of the probe was empty
	key [blockSize]K      // the probed key (a real one even when ok is 0)
}

// draw draws m probes (1 <= m <= blockSize) into f and issues every load
// they need, stage by stage: group headers (alongside the draws), then
// chunk headers, then keys. Nothing waits on a key until accept, so the
// key loads of one block overlap the draws and header loads of the next.
//
// Each probe draws its whole triple — (group, chunk slot, element slot) in
// groups mode, (chunk, element slot) in chunks mode — before any load, in
// the scalar loop's order, as one bounded integer (one RNG step instead of
// three; the mixed-radix digits of a uniform integer are independent and
// uniform). Empty slots are clamped to a real one and carried as ok = 0,
// so every stage loads unconditionally and no branch waits on a miss.
func (r *Run[K]) draw(rng *xrand.RNG, m int, f *flight[K]) {
	cap2s := uint64(2 * r.list.s)
	f.m = m
	var (
		elem [blockSize]uint64    // element slot
		cs   [blockSize]*chunk[K] // chunk header
	)
	switch r.mode {
	case modeGroups:
		span := uint64(r.gHi-r.gLo+1) * cap2s * cap2s
		groups := r.list.groups[r.gLo : r.gHi+1]
		for i := range m {
			v := rng.Uint64n(span)
			gc, e := v/cap2s, v%cap2s
			g, c := gc/cap2s, gc%cap2s
			chunks := groups[g].chunks
			f.ok[i], cs[i] = below(c, len(chunks)), &chunks[min(c, uint64(len(chunks)-1))]
			elem[i], f.id[i] = e, v
		}
	case modeChunks:
		span := uint64(r.nChunks) * cap2s
		for i := range m {
			v := rng.Uint64n(span)
			j, e := v/cap2s, v%cap2s
			f.ok[i], cs[i] = 1, r.chunkAt(int(j))
			elem[i], f.id[i] = e, v
		}
	case modeCollect:
		for i := range m {
			j := rng.Uint64n(uint64(len(r.scratch)))
			f.key[i], f.id[i], f.ok[i] = r.scratch[j], j, 1
		}
		return
	default:
		panic("chunks: Sample on empty run")
	}
	var ks [blockSize]*K
	for i := range m { // chunk headers
		keys := cs[i].keys
		f.ok[i] &= below(elem[i], len(keys))
		ks[i] = &keys[min(elem[i], uint64(len(keys)-1))]
	}
	for i := range m { // keys
		f.key[i] = *ks[i]
	}
}

// accept decides f's probes in draw order, writes the accepted ones to b
// and returns how many it accepted.
func (r *Run[K]) accept(f *flight[K], b *block[K]) int {
	n, since := 0, b.since
	lo, hi := r.lo, r.hi
	for i := range f.m {
		k := f.key[i]
		since++
		b.keys[n], b.ids[n], b.gaps[n] = k, f.id[i], since
		acc := f.ok[i] & b2u(k >= lo) & b2u(k <= hi)
		n += int(acc)
		since &^= -int(acc) // an accept resets the gap
	}
	b.since = since
	f.m = 0
	return n
}

// below returns 1 if x < n and 0 otherwise, without a branch (x and n are
// far below 2^63).
func below(x uint64, n int) uint64 { return (x - uint64(n)) >> 63 }

// b2u returns 1 for true and 0 for false; it compiles to a flag move.
func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// block receives the samples one kernel step accepts, in draw order.
type block[K cmp.Ordered] struct {
	keys [blockSize]K
	ids  [blockSize]uint64 // position identifiers; see SamplePos
	gaps [blockSize]int    // probes since the previous accept, this one included
	// since counts the probes drawn since the last accept. It carries over
	// from one step to the next, so gaps span block boundaries.
	since int
}

// kernel is the blocked probe kernel behind every draw. It keeps up to two
// blocks in flight — the next one is drawn while the current one's keys
// load — but never more probes than samples are still missing, so it draws
// exactly the probes a one-probe-at-a-time loop would draw, in the same
// order, and accepts them in draw order: the samples, the probe counts and
// the generator's final state are that loop's.
type kernel[K cmp.Ordered] struct {
	r       *Run[K]
	rng     *xrand.RNG
	missing int // samples still to accept
	f       [2]flight[K]
	cur     int // index in f of the oldest block in flight
	block[K]
}

// step accepts the oldest block in flight into k.block, after drawing the
// block behind it when that cannot overdraw, and returns how many samples
// it accepted. The caller steps while k.missing > 0.
func (k *kernel[K]) step() int {
	f, next := &k.f[k.cur], &k.f[1-k.cur]
	if f.m == 0 {
		k.r.draw(k.rng, min(k.missing, blockSize), f)
	}
	if m := min(k.missing-f.m, blockSize); m > 0 {
		k.r.draw(k.rng, m, next)
	}
	n := k.r.accept(f, &k.block)
	k.missing -= n
	k.cur = 1 - k.cur
	return n
}

// SampleAppend appends t independent uniform samples from the run's range
// to dst. It panics if the run is empty and t > 0. Expected O(t).
func (r *Run[K]) SampleAppend(dst []K, t int, rng *xrand.RNG) []K {
	k := kernel[K]{r: r, rng: rng, missing: t}
	for k.missing > 0 {
		n := k.step()
		dst = append(dst, k.keys[:n]...)
	}
	return dst
}

// SampleProbesAppend is SampleAppend that also appends, per sample, the
// number of rejection probes it took (>= 1): the draw-order gap between
// consecutive accepts. The probe count is the quantity experiment E10
// studies: its expectation is O(1) but its tail is geometric, which is
// exactly the expected-versus-worst-case gap the follow-up literature
// formalizes.
func (r *Run[K]) SampleProbesAppend(dst []K, probes []int, t int, rng *xrand.RNG) ([]K, []int) {
	k := kernel[K]{r: r, rng: rng, missing: t}
	for k.missing > 0 {
		n := k.step()
		dst = append(dst, k.keys[:n]...)
		probes = append(probes, k.gaps[:n]...)
	}
	return dst, probes
}

// one draws a single sample through the kernel, one probe per block.
func (r *Run[K]) one(rng *xrand.RNG) (key K, probes int, id uint64) {
	k := kernel[K]{r: r, rng: rng, missing: 1}
	for k.step() == 0 {
	}
	return k.keys[0], k.gaps[0], k.ids[0]
}

// Sample returns one key uniform over the range. It panics if the run is
// empty. Expected O(1) time.
func (r *Run[K]) Sample(rng *xrand.RNG) K {
	k, _, _ := r.one(rng)
	return k
}

// SampleProbes returns one uniform key and the number of rejection probes
// it took (>= 1); see SampleProbesAppend.
func (r *Run[K]) SampleProbes(rng *xrand.RNG) (K, int) {
	k, p, _ := r.one(rng)
	return k, p
}

// SamplePos returns one uniform key together with an opaque identifier of
// the *position* (occurrence) sampled, distinct across all positions in the
// run. Sampling without replacement uses it to reject repeat positions
// exactly even when key values repeat. The identifier is only meaningful
// for the lifetime of the run.
func (r *Run[K]) SamplePos(rng *xrand.RNG) (K, uint64) {
	k, _, id := r.one(rng)
	return k, id
}

// SampleAppend draws t independent uniform samples from [lo, hi], appending
// to dst. It reports ok=false (and appends nothing) if the range is empty
// and t > 0. Total cost O(log n + t) expected.
func (l *List[K]) SampleAppend(dst []K, lo, hi K, t int, rng *xrand.RNG) ([]K, bool) {
	if t <= 0 {
		return dst, true
	}
	var r Run[K]
	l.InitRun(&r, lo, hi)
	if r.Empty() {
		return dst, false
	}
	return r.SampleAppend(dst, t, rng), true
}
