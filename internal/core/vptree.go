package core

import "sort"

// vpTree is a vantage-point metric tree over the representative rows of
// one comparability class's slab, answering "is any stored vector within
// its acceptance ball of this candidate?" in sublinear time. It relies
// only on dist being a metric (the triangle inequality), which holds for
// the whole Minkowski family and for Euclidean distance between wavelet
// transforms.
//
// The tree stores only item numbers: vectors and max-abs values are read
// out of the class slab at use time (the slab is append-grown and rows
// may relocate, so holding row slices across insertions would dangle).
// Re-pointing the tree at the slab removes the per-item vector copies
// the previous implementation kept and gives tree descents the same
// cache locality as the linear kernels.
//
// The acceptance ball's radius is pairwise — bound(candMaxAbs,
// repMaxAbs), e.g. threshold × the larger max-abs of the pair — so each
// node carries the maximum max-abs over its subtree and pruning uses the
// radius that subtree maximum implies. That keeps pruning conservative:
// a subtree is skipped only when the triangle-inequality lower bound
// provably exceeds every member's acceptance bound, with the same
// pruneMargin slack as the linear scan's norm pruning. A search
// therefore finds a match if and only if the exact scan would; only
// which member it returns may differ.
//
// Representatives arrive one at a time as the reduction keeps them, so
// the tree is maintained by logarithmic rebuilding: new items join a
// small pending list that searches scan linearly, and once pending grows
// past a quarter of the indexed items the whole tree is rebuilt. Each
// item takes part in O(log n) rebuilds of geometrically growing size.
//
// Search favours first-match order without paying for it: every node's
// vantage point is the lowest-numbered (earliest-kept) item of its
// subtree, children are visited lowest-minimum-first, and the pending
// list (always the newest suffix) is scanned last, so the returned match
// is usually the exact scan's first match. The traversal stack is
// retained across searches (and across rebuilds), keeping steady-state
// scans allocation-free.
type vpTree struct {
	cls *Class
	// dist is the metric between vectors; bound maps the candidate's and
	// a representative's max-abs to the pair's acceptance radius.
	dist  func(a, b []float64) float64
	bound func(candMaxAbs, repMaxAbs float64) float64

	n int // items indexed so far (tree + pending)

	nodes   []vpNode
	root    int32
	pending []int32 // items not yet in the tree, ascending, scanned linearly

	stack []int32 // reusable DFS stack
	items []int32 // reusable rebuild scratch
}

// vpNode is one tree node. Items with dist(vp, x) <= mu live in the
// inner subtree, the rest in the outer subtree.
type vpNode struct {
	item         int32 // vantage point: the subtree's lowest item number
	inner, outer int32 // node indices, -1 when absent
	mu           float64
	subMaxAbs    float64 // max of maxAbs over the whole subtree
}

func newVPTree(cls *Class, dist func(a, b []float64) float64, bound func(candMaxAbs, repMaxAbs float64) float64) *vpTree {
	return &vpTree{cls: cls, dist: dist, bound: bound, root: -1}
}

// row and itemMaxAbs fetch an indexed item's vector and max-abs from the
// slab at use time.
func (t *vpTree) row(i int32) []float64      { return t.cls.Row(int(i)) }
func (t *vpTree) itemMaxAbs(i int32) float64 { return t.cls.maxAbs[i] }

// add indexes the class's i-th slab row.
func (t *vpTree) add(i int) {
	t.n++
	t.pending = append(t.pending, int32(i))
	inTree := t.n - len(t.pending)
	if len(t.pending)*4 >= inTree+4 {
		t.rebuild()
	}
}

// reindex rebuilds the tree over every representative of the class:
// after a mutating Absorb changed slab rows in place, or when the class
// first reaches indexMinClassSize.
func (t *vpTree) reindex() {
	t.n = 0
	t.pending = t.pending[:0]
	t.nodes = t.nodes[:0]
	t.root = -1
	for i, n := 0, t.cls.Len(); i < n; i++ {
		t.add(i)
	}
}

// rebuild reconstructs the tree over every item and empties the pending
// list.
func (t *vpTree) rebuild() {
	t.pending = t.pending[:0]
	t.nodes = t.nodes[:0]
	items := t.items[:0]
	for i := 0; i < t.n; i++ {
		items = append(items, int32(i))
	}
	t.items = items
	t.root = t.build(items)
}

// build constructs the subtree over items (ascending on entry) and
// returns its node index, or -1 for an empty set.
func (t *vpTree) build(items []int32) int32 {
	if len(items) == 0 {
		return -1
	}
	// The lowest item is first (partitioning below preserves that the
	// minimum stays at index 0) and becomes the vantage point, so a
	// pre-order visit sees items in near-collection order.
	vp := items[0]
	rest := items[1:]
	ni := int32(len(t.nodes))
	t.nodes = append(t.nodes, vpNode{item: vp, inner: -1, outer: -1, subMaxAbs: t.itemMaxAbs(vp)})
	if len(rest) > 0 {
		// Split the remaining items at the median distance from vp.
		// Rebuilds are amortized O(log n) per item, so allocating the
		// scratch here is fine; searches stay allocation-free.
		dists := make([]float64, len(rest))
		for j, it := range rest {
			dists[j] = t.dist(t.row(vp), t.row(it))
		}
		sorted := append([]float64(nil), dists...)
		sort.Float64s(sorted)
		mu := sorted[(len(sorted)-1)/2]
		// Partition in place, stably enough to keep each side's minimum
		// item first: collect inner then outer in item order.
		inner := make([]int32, 0, len(rest))
		outer := make([]int32, 0, len(rest))
		for j, it := range rest {
			if dists[j] <= mu {
				inner = append(inner, it)
			} else {
				outer = append(outer, it)
			}
		}
		t.nodes[ni].mu = mu
		in := t.build(inner)
		out := t.build(outer)
		n := &t.nodes[ni]
		n.inner, n.outer = in, out
		if in >= 0 && t.nodes[in].subMaxAbs > n.subMaxAbs {
			n.subMaxAbs = t.nodes[in].subMaxAbs
		}
		if out >= 0 && t.nodes[out].subMaxAbs > n.subMaxAbs {
			n.subMaxAbs = t.nodes[out].subMaxAbs
		}
	}
	return ni
}

// search returns an item whose acceptance ball contains vec — near-first
// in collection order — or -1 when no indexed item matches. It performs
// the exact per-pair acceptance test dist <= bound(candMaxAbs, itemMaxAbs)
// on every item it reaches, and prunes subtrees only via the triangle
// inequality against the subtree's conservative radius.
func (t *vpTree) search(vec []float64, candMaxAbs float64) int {
	if t.root >= 0 {
		stack := t.stack[:0]
		stack = append(stack, t.root)
		for len(stack) > 0 {
			ni := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			n := &t.nodes[ni]
			d := t.dist(vec, t.row(n.item))
			if d <= t.bound(candMaxAbs, t.itemMaxAbs(n.item)) {
				t.stack = stack
				return int(n.item)
			}
			// Push outer before inner: the inner subtree holds the
			// earlier-kept items more often and is popped first. A child
			// is skipped only when the reverse triangle inequality puts
			// every member outside its own acceptance ball, judged with
			// the subtree's largest possible radius and the scan's
			// conservative margin.
			if out := n.outer; out >= 0 {
				if lb := n.mu - d; !pruned(lb, t.bound(candMaxAbs, t.nodes[out].subMaxAbs)) {
					stack = append(stack, out)
				}
			}
			if in := n.inner; in >= 0 {
				if lb := d - n.mu; !pruned(lb, t.bound(candMaxAbs, t.nodes[in].subMaxAbs)) {
					stack = append(stack, in)
				}
			}
		}
		t.stack = stack
	}
	for _, it := range t.pending {
		if t.dist(vec, t.row(it)) <= t.bound(candMaxAbs, t.itemMaxAbs(it)) {
			return int(it)
		}
	}
	return -1
}

// size returns the number of indexed items.
func (t *vpTree) size() int { return t.n }

// vpIndexer is implemented by the policies whose acceptance test is a
// ball under a metric — the Minkowski family, absDiff and the two
// wavelet methods — so a VP-tree over the class's prepared slab rows
// (padded measurements, or transforms for the wavelets) finds a match
// exactly when the linear scan does. The candidate side is uniformly
// cs.Vec/cs.MaxAbs.
type vpIndexer interface {
	newClassTree(cls *Class) *vpTree
}
