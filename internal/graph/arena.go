package graph

import "math"

// This file is the allocation-free face of Dijkstra. The memoised
// Dijkstra method suits callers that keep one graph alive and ask for
// the same sources repeatedly; the planner's failure-scenario loop is
// the opposite shape — thousands of slightly different graphs, each
// asked once per DC — and cloning a Graph per scenario plus allocating a
// tree per source dominated the full-solve profile. DijkstraInto runs
// the exact same algorithm on the *base* graph with an edge-exclusion
// filter, writing into a caller-owned tree through a reusable Scratch,
// so a warmed solver routes a scenario with zero heap allocations.
//
// Results are bit-identical to Dijkstra on a graph rebuilt without the
// skipped edges: the deterministic tie-break (better) keys on distances, hop
// counts, node numbers and edge IDs — none of which change when edges
// are filtered instead of removed — and adjacency is scanned in the
// same relative order.

// Scratch holds the reusable per-run state of DijkstraInto: the settled
// marks and the priority queue (a monotone bucket queue, with a plain
// binary heap as fallback for graphs whose weights defeat the bucket
// width heuristic). A Scratch may be reused across runs and graphs but
// not concurrently.
type Scratch struct {
	done    []bool
	heap    []distItem
	buckets [][]distItem
	hi      int // 1 + highest bucket index touched this run
	queued  int
}

// maxBuckets bounds bucket-queue memory; distances past the last bucket
// fall into it as an overflow bucket, which is scanned exactly like any
// other so correctness never depends on the width guess.
const maxBuckets = 1 << 12

func (sc *Scratch) reset(n int) {
	if cap(sc.done) < n {
		sc.done = make([]bool, n)
	} else {
		sc.done = sc.done[:n]
		clear(sc.done)
	}
	for i := 0; i < sc.hi; i++ {
		sc.buckets[i] = sc.buckets[i][:0]
	}
	sc.hi = 0
	sc.heap = sc.heap[:0]
	sc.queued = 0
}

// reset re-initialises a tree's slabs for graph g, reusing capacity.
func (t *ShortestPathTree) reset(g *Graph, source int) {
	n := g.n
	if cap(t.Dist) < n {
		t.Dist = make([]float64, n)
		t.Hops = make([]int, n)
		t.prevEdge = make([]int, n)
	} else {
		t.Dist = t.Dist[:n]
		t.Hops = t.Hops[:n]
		t.prevEdge = t.prevEdge[:n]
	}
	for i := 0; i < n; i++ {
		t.Dist[i] = Inf
		t.Hops[i] = math.MaxInt
		t.prevEdge[i] = -1
	}
	t.g = g
	t.Source = source
	t.Dist[source] = 0
	t.Hops[source] = 0
}

// bucketWidth picks the bucket quantum: the smallest positive edge
// weight (Dial's choice) keeps buckets near-singleton so the min-scan
// per pop stays O(1); widths whose spread would overflow the bucket cap
// into one giant overflow bucket fall back to the heap. Zero disables
// the bucket queue (edgeless or all-zero-weight graphs).
func (g *Graph) bucketWidth() float64 {
	w := g.minW
	if len(g.edges) == 0 || w <= 0 || math.IsInf(w, 1) {
		return 0
	}
	return w
}

// DijkstraInto computes the single-source shortest-path tree of g with
// the skipped edges excluded, writing into t. skip is indexed by edge
// *index* (see EdgeIndex), not ID; nil means no exclusions. The result
// is bit-identical to Dijkstra on a copy of g without those edges but
// performs no allocation once t and sc are warm. t is returned for convenience.
func (g *Graph) DijkstraInto(source int, skip []bool, t *ShortestPathTree, sc *Scratch) *ShortestPathTree {
	t.reset(g, source)
	sc.reset(g.n)
	if w := g.bucketWidth(); w > 0 {
		g.settleBuckets(t, sc, skip, w)
	} else {
		g.settleHeapScratch(t, sc, skip)
	}
	return t
}

// dijkstraHeapInto is settleHeapScratch behind the DijkstraInto reset
// protocol: the heap-only variant, kept callable for the equivalence
// tests and the bucket-vs-heap micro-benchmarks.
func (g *Graph) dijkstraHeapInto(source int, skip []bool, t *ShortestPathTree, sc *Scratch) *ShortestPathTree {
	t.reset(g, source)
	sc.reset(g.n)
	g.settleHeapScratch(t, sc, skip)
	return t
}

func itemLess(a, b distItem) bool {
	if a.dist != b.dist {
		return a.dist < b.dist
	}
	if a.hops != b.hops {
		return a.hops < b.hops
	}
	return a.node < b.node
}

// settleBuckets is the Dijkstra main loop over a monotone bucket queue.
// Extraction scans the lowest non-empty bucket for its minimum under
// the same total order the heap uses, so the pop sequence — and hence
// the tree, given the deterministic relaxation — matches the heap's
// exactly. Monotonicity holds because a relaxed label is never smaller
// than the label being settled, so pushes never land below the cursor.
func (g *Graph) settleBuckets(t *ShortestPathTree, sc *Scratch, skip []bool, width float64) {
	sc.pushBucket(distItem{node: t.Source, dist: 0, hops: 0}, width)
	bi := 0
	for sc.queued > 0 {
		for bi < sc.hi && len(sc.buckets[bi]) == 0 {
			bi++
		}
		if bi >= sc.hi {
			return
		}
		b := sc.buckets[bi]
		mi := 0
		for k := 1; k < len(b); k++ {
			if itemLess(b[k], b[mi]) {
				mi = k
			}
		}
		it := b[mi]
		b[mi] = b[len(b)-1]
		sc.buckets[bi] = b[:len(b)-1]
		sc.queued--
		u := it.node
		if sc.done[u] {
			continue
		}
		sc.done[u] = true
		for _, idx := range g.adj[u] {
			if skip != nil && skip[idx] {
				continue
			}
			e := g.edges[idx]
			v := e.Other(u)
			if sc.done[v] {
				continue
			}
			nd := t.Dist[u] + e.W
			nh := t.Hops[u] + 1
			if better(nd, nh, u, e.ID, t.Dist[v], t.Hops[v], t.prev(v), t.prevID(v)) {
				t.Dist[v] = nd
				t.Hops[v] = nh
				t.prevEdge[v] = idx
				sc.pushBucket(distItem{node: v, dist: nd, hops: nh}, width)
			}
		}
	}
}

func (sc *Scratch) pushBucket(it distItem, width float64) {
	bi := int(it.dist / width)
	if bi >= maxBuckets {
		bi = maxBuckets - 1
	}
	for bi >= len(sc.buckets) {
		sc.buckets = append(sc.buckets, nil)
	}
	sc.buckets[bi] = append(sc.buckets[bi], it)
	if bi+1 > sc.hi {
		sc.hi = bi + 1
	}
	sc.queued++
}

// settleHeapScratch mirrors settle but on a typed heap owned by the
// Scratch, avoiding container/heap's interface boxing.
func (g *Graph) settleHeapScratch(t *ShortestPathTree, sc *Scratch, skip []bool) {
	sc.heap = heapPushItem(sc.heap, distItem{node: t.Source, dist: 0, hops: 0})
	for len(sc.heap) > 0 {
		var it distItem
		sc.heap, it = heapPopItem(sc.heap)
		u := it.node
		if sc.done[u] {
			continue
		}
		sc.done[u] = true
		for _, idx := range g.adj[u] {
			if skip != nil && skip[idx] {
				continue
			}
			e := g.edges[idx]
			v := e.Other(u)
			if sc.done[v] {
				continue
			}
			nd := t.Dist[u] + e.W
			nh := t.Hops[u] + 1
			if better(nd, nh, u, e.ID, t.Dist[v], t.Hops[v], t.prev(v), t.prevID(v)) {
				t.Dist[v] = nd
				t.Hops[v] = nh
				t.prevEdge[v] = idx
				sc.heap = heapPushItem(sc.heap, distItem{node: v, dist: nd, hops: nh})
			}
		}
	}
}

func heapPushItem(h []distItem, it distItem) []distItem {
	h = append(h, it)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !itemLess(h[i], h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	return h
}

func heapPopItem(h []distItem) ([]distItem, distItem) {
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(h) && itemLess(h[l], h[small]) {
			small = l
		}
		if r < len(h) && itemLess(h[r], h[small]) {
			small = r
		}
		if small == i {
			break
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
	return h, top
}
