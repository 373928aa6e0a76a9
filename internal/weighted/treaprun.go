package weighted

import (
	"math"
	"sort"

	"cmp"

	"github.com/irsgo/irs/internal/core"
	"github.com/irsgo/irs/internal/xrand"
)

// TreapRun is per-query sampling scratch for a Treap: the canonical
// decomposition of a key range into O(log n) expected spans (whole subtrees
// plus individual boundary nodes), with cumulative weights for O(log log n)
// span selection per sample. Building a run never restructures the tree, so
// any number of goroutines may sample one Treap through their own runs
// concurrently, provided no mutation (Insert, Delete, UpdateWeight) runs at
// the same time. The sharded concurrent layer (internal/shard) relies on
// this to serve weighted readers under a shared lock: it prepares one run
// per overlapping shard and draws from it.
//
// A run is a snapshot: it holds pointers into the tree and is invalidated
// by any subsequent mutation.
type TreapRun[K cmp.Ordered] struct {
	spans []treapSpan[K]
	cum   []float64 // cum[i] = total weight of spans[0..i]
	count int       // keys in range, including zero-weight ones
	total float64   // weight mass in range
}

type treapSpan[K cmp.Ordered] struct {
	node *wnode[K]
	sub  bool // true: the node's whole subtree; false: the node alone
}

// Empty reports whether the range held no keys at all.
func (r *TreapRun[K]) Empty() bool { return r.count == 0 }

// Count returns the number of in-range keys (zero-weight keys included).
func (r *TreapRun[K]) Count() int { return r.count }

// Weight returns the total weight mass of the range.
func (r *TreapRun[K]) Weight() float64 { return r.total }

func (r *TreapRun[K]) push(n *wnode[K], sub bool, w float64) {
	r.total += w
	r.spans = append(r.spans, treapSpan[K]{node: n, sub: sub})
	r.cum = append(r.cum, r.total)
}

// InitRun prepares run for sampling [lo, hi]. O(log n) expected; read-only.
func (t *Treap[K]) InitRun(run *TreapRun[K], lo, hi K) {
	run.spans = run.spans[:0]
	run.cum = run.cum[:0]
	run.count = 0
	run.total = 0
	if hi < lo {
		return
	}
	collectSpans(t.root, lo, hi, false, false, run)
}

// collectSpans appends the canonical cover of [lo, hi] within n's subtree.
// loB (hiB) asserts that every key in the subtree is already known to be
// >= lo (<= hi) from decisions made higher up, which is what lets a fully
// contained subtree be emitted as one span without descending further.
func collectSpans[K cmp.Ordered](n *wnode[K], lo, hi K, loB, hiB bool, run *TreapRun[K]) {
	if n == nil {
		return
	}
	if loB && hiB {
		run.count += n.size
		if n.wsum > 0 {
			run.push(n, true, n.wsum)
		}
		return
	}
	inLo := loB || !(n.key < lo)
	inHi := hiB || !(hi < n.key)
	// Left subtree keys are <= n.key: skip it when n.key < lo, and inherit
	// the hi bound when n.key <= hi. Mirrored for the right subtree.
	if inLo {
		collectSpans(n.left, lo, hi, loB, inHi, run)
	}
	if inLo && inHi {
		run.count++
		if n.weight > 0 {
			run.push(n, false, n.weight)
		}
	}
	if inHi {
		collectSpans(n.right, lo, hi, inLo, hiB, run)
	}
}

// Sample draws one key with probability proportional to its weight among
// the run's range contents. The run must be non-empty with positive weight.
func (r *TreapRun[K]) Sample(rng *xrand.RNG) K {
	x := rng.Float64() * r.total
	// First span whose cumulative weight exceeds x.
	i := sort.Search(len(r.cum), func(j int) bool { return r.cum[j] > x })
	if i >= len(r.spans) { // floating-point drift at the top edge
		i = len(r.spans) - 1
	}
	sp := r.spans[i]
	if !sp.sub {
		return sp.node.key
	}
	return sampleNode(sp.node, rng.Float64()*sp.node.wsum)
}

// SampleAppend appends k samples drawn as by Sample to dst. The run must
// be non-empty with positive weight unless k is 0.
func (r *TreapRun[K]) SampleAppend(dst []K, k int, rng *xrand.RNG) []K {
	for range k {
		dst = append(dst, r.Sample(rng))
	}
	return dst
}

// RangeStats returns the number of keys and the weight mass in [lo, hi] in
// one O(log n) expected read-only descent.
func (t *Treap[K]) RangeStats(lo, hi K) (count int, weight float64) {
	if hi < lo {
		return 0, 0
	}
	rangeAgg(t.root, lo, hi, false, false, &count, &weight)
	return count, weight
}

func rangeAgg[K cmp.Ordered](n *wnode[K], lo, hi K, loB, hiB bool, count *int, weight *float64) {
	if n == nil {
		return
	}
	if loB && hiB {
		*count += n.size
		*weight += n.wsum
		return
	}
	inLo := loB || !(n.key < lo)
	inHi := hiB || !(hi < n.key)
	if inLo {
		rangeAgg(n.left, lo, hi, loB, inHi, count, weight)
	}
	if inLo && inHi {
		*count++
		*weight += n.weight
	}
	if inHi {
		rangeAgg(n.right, lo, hi, inLo, hiB, count, weight)
	}
}

// AppendRange appends the keys in [lo, hi] to dst in sorted order.
// O(log n + out) expected; read-only.
func (t *Treap[K]) AppendRange(dst []K, lo, hi K) []K {
	if hi < lo {
		return dst
	}
	var rec func(n *wnode[K], loB, hiB bool)
	rec = func(n *wnode[K], loB, hiB bool) {
		if n == nil {
			return
		}
		inLo := loB || !(n.key < lo)
		inHi := hiB || !(hi < n.key)
		if inLo {
			rec(n.left, loB, inHi)
		}
		if inLo && inHi {
			dst = append(dst, n.key)
		}
		if inHi {
			rec(n.right, inLo, hiB)
		}
	}
	rec(t.root, false, false)
	return dst
}

// AppendItems appends every stored (key, weight) pair in key order. O(n).
func (t *Treap[K]) AppendItems(dst []Item[K]) []Item[K] {
	var rec func(n *wnode[K])
	rec = func(n *wnode[K]) {
		if n == nil {
			return
		}
		rec(n.left)
		dst = append(dst, Item[K]{Key: n.key, Weight: n.weight})
		rec(n.right)
	}
	rec(t.root)
	return dst
}

// visitBlock is the number of items VisitItems hands over per call.
const visitBlock = 256

// VisitItems hands every stored (key, weight) pair to visit in key order,
// in blocks of up to visitBlock items copied into one reused buffer (visit
// must not retain a block), stopping at the first error visit returns.
// O(n) time; the buffer is the only allocation.
func (t *Treap[K]) VisitItems(visit func(block []Item[K]) error) error {
	block := make([]Item[K], 0, visitBlock)
	var err error
	var rec func(n *wnode[K])
	rec = func(n *wnode[K]) {
		for ; n != nil && err == nil; n = n.right {
			rec(n.left)
			if err != nil {
				return
			}
			block = append(block, Item[K]{Key: n.key, Weight: n.weight})
			if len(block) == visitBlock {
				err = visit(block)
				block = block[:0]
			}
		}
	}
	rec(t.root)
	if err == nil && len(block) > 0 {
		err = visit(block)
	}
	return err
}

// MinKey returns the smallest stored key, and false when empty.
func (t *Treap[K]) MinKey() (K, bool) {
	var zero K
	n := t.root
	if n == nil {
		return zero, false
	}
	for n.left != nil {
		n = n.left
	}
	return n.key, true
}

// MaxKey returns the largest stored key, and false when empty.
func (t *Treap[K]) MaxKey() (K, bool) {
	var zero K
	n := t.root
	if n == nil {
		return zero, false
	}
	for n.right != nil {
		n = n.right
	}
	return n.key, true
}

// NewTreapFromSortedItems bulk-loads a Treap from items already sorted by
// key in O(n), using the rightmost-spine construction: each new node is
// attached after popping the spine nodes whose priorities it beats, so the
// heap and order invariants hold by construction. Returns ErrInvalidWeight
// for bad weights, core.ErrNaNKey for a NaN key and ErrUnsortedItems for
// out-of-order keys. The input is not retained.
func NewTreapFromSortedItems[K cmp.Ordered](seed uint64, items []Item[K]) (*Treap[K], error) {
	t := NewTreap[K](seed)
	var spine []*wnode[K] // the rightmost root-to-leaf path, root first
	var prev K
	for i, it := range items {
		if it.Weight < 0 || math.IsNaN(it.Weight) || math.IsInf(it.Weight, 0) {
			return nil, ErrInvalidWeight
		}
		if it.Key != it.Key {
			return nil, core.ErrNaNKey
		}
		if i > 0 && it.Key < prev {
			return nil, ErrUnsortedItems
		}
		prev = it.Key
		n := &wnode[K]{key: it.Key, weight: it.Weight, priority: t.rng.Uint64()}
		var last *wnode[K]
		for len(spine) > 0 && spine[len(spine)-1].priority < n.priority {
			last = spine[len(spine)-1]
			last.update() // its subtree is final once popped
			spine = spine[:len(spine)-1]
		}
		n.left = last
		if len(spine) > 0 {
			spine[len(spine)-1].right = n
		}
		spine = append(spine, n)
	}
	for i := len(spine) - 1; i >= 0; i-- {
		spine[i].update()
	}
	if len(spine) > 0 {
		t.root = spine[0]
	}
	t.n = len(items)
	return t, nil
}
