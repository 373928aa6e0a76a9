package weighted

import (
	"cmp"
	"math"

	"github.com/irsgo/irs/internal/core"
	"github.com/irsgo/irs/internal/xrand"
)

// Treap is the fully dynamic weighted sampler: a treap over (key, weight)
// pairs maintaining subtree weight sums. Unlike the static samplers in this
// package it supports inserting and deleting weighted items, at the price
// of O(log n) expected time per sample (a weight-guided root-to-leaf
// descent).
//
//	Insert / Delete / UpdateWeight   O(log n) expected
//	Count / TotalWeight              O(log n) expected
//	SampleAppend (t samples)         O(log n + t log log n) expected
//
// Queries are read-only: Count, TotalWeight, RangeStats, AppendRange, and
// InitRun plus sampling from the run (with caller-owned TreapRun scratch)
// never restructure the tree, so any number of goroutines may run them
// concurrently as long as no mutation (Insert, Delete, UpdateWeight) runs
// at the same time.
// SampleAppend draws through receiver-internal scratch and is therefore
// additionally exclusive against other SampleAppend calls on the same
// receiver — the same contract as core.Dynamic.
type Treap[K cmp.Ordered] struct {
	root *wnode[K]
	rng  *xrand.RNG
	n    int
	run  TreapRun[K] // reused by SampleAppend; makes steady-state queries allocation-free
}

type wnode[K cmp.Ordered] struct {
	key         K
	weight      float64
	wsum        float64
	size        int
	priority    uint64
	left, right *wnode[K]
}

func (n *wnode[K]) sizeOf() int {
	if n == nil {
		return 0
	}
	return n.size
}

func (n *wnode[K]) wsumOf() float64 {
	if n == nil {
		return 0
	}
	return n.wsum
}

func (n *wnode[K]) update() {
	n.size = 1 + n.left.sizeOf() + n.right.sizeOf()
	n.wsum = n.weight + n.left.wsumOf() + n.right.wsumOf()
}

// NewTreap returns an empty dynamic weighted sampler; seed drives the
// treap's rebalancing priorities.
func NewTreap[K cmp.Ordered](seed uint64) *Treap[K] {
	return &Treap[K]{rng: xrand.New(seed)}
}

// NewTreapFromItems bulk-inserts items. O(n log n).
func NewTreapFromItems[K cmp.Ordered](seed uint64, items []Item[K]) (*Treap[K], error) {
	t := NewTreap[K](seed)
	for _, it := range items {
		if err := t.Insert(it.Key, it.Weight); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// Len returns the number of stored items.
func (t *Treap[K]) Len() int { return t.n }

func wsplit[K cmp.Ordered](n *wnode[K], key K, strict bool) (l, r *wnode[K]) {
	// strict: left gets keys < key; otherwise left gets keys <= key.
	if n == nil {
		return nil, nil
	}
	goLeft := n.key < key || (!strict && n.key == key)
	if goLeft {
		n.right, r = wsplit(n.right, key, strict)
		n.update()
		return n, r
	}
	l, n.left = wsplit(n.left, key, strict)
	n.update()
	return l, n
}

func wmerge[K cmp.Ordered](l, r *wnode[K]) *wnode[K] {
	if l == nil {
		return r
	}
	if r == nil {
		return l
	}
	if l.priority >= r.priority {
		l.right = wmerge(l.right, r)
		l.update()
		return l
	}
	r.left = wmerge(l, r.left)
	r.update()
	return r
}

// Insert adds an item (duplicate keys allowed). Returns ErrInvalidWeight
// for negative, NaN, or infinite weights and core.ErrNaNKey for a NaN key,
// storing nothing.
func (t *Treap[K]) Insert(key K, weight float64) error {
	if weight < 0 || math.IsNaN(weight) || math.IsInf(weight, 0) {
		return ErrInvalidWeight
	}
	if key != key {
		return core.ErrNaNKey
	}
	n := &wnode[K]{key: key, weight: weight, priority: t.rng.Uint64()}
	n.update()
	l, r := wsplit(t.root, key, true)
	t.root = wmerge(wmerge(l, n), r)
	t.n++
	return nil
}

// Delete removes one occurrence of key, reporting whether one existed.
func (t *Treap[K]) Delete(key K) bool {
	var deleted bool
	t.root = wdelete(t.root, key, &deleted)
	if deleted {
		t.n--
	}
	return deleted
}

func wdelete[K cmp.Ordered](n *wnode[K], key K, deleted *bool) *wnode[K] {
	if n == nil {
		return nil
	}
	switch {
	case key < n.key:
		n.left = wdelete(n.left, key, deleted)
	case key > n.key:
		n.right = wdelete(n.right, key, deleted)
	default:
		*deleted = true
		return wmerge(n.left, n.right)
	}
	n.update()
	return n
}

// UpdateWeight sets the weight of one occurrence of key, reporting whether
// the key was present. Returns ErrInvalidWeight for bad weights.
func (t *Treap[K]) UpdateWeight(key K, weight float64) (bool, error) {
	if weight < 0 || math.IsNaN(weight) || math.IsInf(weight, 0) {
		return false, ErrInvalidWeight
	}
	// Descend to the node, then fix sums on the way back up.
	var apply func(n *wnode[K]) bool
	apply = func(n *wnode[K]) bool {
		if n == nil {
			return false
		}
		var ok bool
		switch {
		case key < n.key:
			ok = apply(n.left)
		case key > n.key:
			ok = apply(n.right)
		default:
			n.weight = weight
			ok = true
		}
		if ok {
			n.update()
		}
		return ok
	}
	return apply(t.root), nil
}

// Count returns the number of items with keys in [lo, hi]. Read-only.
func (t *Treap[K]) Count(lo, hi K) int {
	c, _ := t.RangeStats(lo, hi)
	return c
}

// TotalWeight returns the weight mass in [lo, hi]. Read-only.
func (t *Treap[K]) TotalWeight(lo, hi K) float64 {
	_, w := t.RangeStats(lo, hi)
	return w
}

// SampleAppend appends k samples from [lo, hi], each with probability
// proportional to its weight, drawing through the receiver's internal run
// scratch (see TreapRun for the concurrent-reader variant).
// O(log n + k log log n) expected.
func (t *Treap[K]) SampleAppend(dst []K, lo, hi K, k int, rng *xrand.RNG) ([]K, error) {
	if err := sampleArgsErr(k); err != nil {
		return dst, err
	}
	if k == 0 {
		return dst, nil
	}
	t.InitRun(&t.run, lo, hi)
	if t.run.count == 0 {
		return dst, ErrEmptyRange
	}
	if t.run.total <= 0 {
		return dst, ErrZeroWeightRange
	}
	return t.run.SampleAppend(dst, k, rng), nil
}

// sampleNode descends by cumulative weight: x is uniform in [0, n.wsum).
// The invariant maintained at every step is that n's subtree has positive
// weight mass; the drift branches keep it when floating-point error pushes
// x past a boundary.
func sampleNode[K cmp.Ordered](n *wnode[K], x float64) K {
	for {
		lw := n.left.wsumOf()
		if x < lw && lw > 0 {
			n = n.left
			continue
		}
		x -= lw
		if x < n.weight && n.weight > 0 {
			return n.key
		}
		x -= n.weight
		if n.right != nil && n.right.wsum > 0 {
			n = n.right
			continue
		}
		// Floating-point drift: x overshot the subtree mass. Clamp to the
		// nearest positive mass: this node, else the left subtree.
		if n.weight > 0 {
			return n.key
		}
		if n.left != nil && n.left.wsum > 0 {
			x = 0
			n = n.left
			continue
		}
		panic("weighted: sampling descent reached a zero-mass subtree")
	}
}

// Validate checks order, heap priorities, sizes, and weight sums (tests).
func (t *Treap[K]) Validate() error {
	_, _, err := wvalidate(t.root)
	if err == nil && t.root.sizeOf() != t.n {
		return validationErr("weighted: size counter mismatch")
	}
	return err
}

type validationErr string

func (e validationErr) Error() string { return string(e) }

func wvalidate[K cmp.Ordered](n *wnode[K]) (int, float64, error) {
	if n == nil {
		return 0, 0, nil
	}
	ls, lw, err := wvalidate(n.left)
	if err != nil {
		return 0, 0, err
	}
	rs, rw, err := wvalidate(n.right)
	if err != nil {
		return 0, 0, err
	}
	if n.size != ls+rs+1 {
		return 0, 0, validationErr("weighted: treap size field stale")
	}
	if diff := n.wsum - (lw + rw + n.weight); diff > 1e-9 || diff < -1e-9 {
		return 0, 0, validationErr("weighted: treap weight sum stale")
	}
	if n.left != nil && (n.left.key > n.key || n.left.priority > n.priority) {
		return 0, 0, validationErr("weighted: treap left invariant")
	}
	if n.right != nil && (n.right.key < n.key || n.right.priority > n.priority) {
		return 0, 0, validationErr("weighted: treap right invariant")
	}
	return n.size, n.wsum, nil
}
