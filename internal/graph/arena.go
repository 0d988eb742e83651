package graph

import "math"

// This file is the package's one shortest-path engine. DijkstraInto,
// the memoised Dijkstra and DistancesFromSeeds all run settleBuckets,
// a Dijkstra main loop over a monotone bucket queue. DijkstraInto is
// the allocation-free face: the planner's failure-scenario loop asks
// thousands of slightly different graphs once per DC, so it runs on the
// *base* graph with an edge-exclusion filter, writing into a
// caller-owned tree through a reusable Scratch, and a warmed solver
// routes a scenario with zero heap allocations.
//
// Results are bit-identical to Dijkstra on a graph rebuilt without the
// skipped edges: the deterministic tie-break (better) keys on distances, hop
// counts, node numbers and edge IDs — none of which change when edges
// are filtered instead of removed — and adjacency is scanned in the
// same relative order.

// Scratch holds the reusable per-run state of DijkstraInto: the settled
// marks and the priority queue, a monotone bucket queue. A Scratch may
// be reused across runs and graphs but not concurrently.
type Scratch struct {
	done    []bool
	buckets [][]distItem
	hi      int // 1 + highest bucket index touched this run
	queued  int
}

// distItem is one queue entry: a tentative label for node.
type distItem struct {
	node int
	dist float64
	hops int
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
	sc.queued = 0
}

// reset re-initialises a tree's slabs for graph g, reusing capacity. A
// negative source leaves every node unlabelled, for multi-seed runs.
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
	if source >= 0 {
		t.Dist[source] = 0
		t.Hops[source] = 0
	}
}

// bucketWidth picks the bucket quantum: the smallest positive edge
// weight (Dial's choice) keeps buckets near-singleton so the min-scan
// per pop stays O(1). The queue is exact for any positive width, so a
// graph with no finite positive weight (edgeless, or all zero) uses 1.
func (g *Graph) bucketWidth() float64 {
	if w := g.minW; w > 0 && !math.IsInf(w, 1) {
		return w
	}
	return 1
}

// DijkstraInto computes the single-source shortest-path tree of g with
// the skipped edges excluded, writing into t. skip is indexed by edge
// *index* (see EdgeIndex), not ID; nil means no exclusions. The result
// is bit-identical to Dijkstra on a copy of g without those edges but
// performs no allocation once t and sc are warm. t is returned for convenience.
func (g *Graph) DijkstraInto(source int, skip []bool, t *ShortestPathTree, sc *Scratch) *ShortestPathTree {
	t.reset(g, source)
	sc.reset(g.n)
	w := g.bucketWidth()
	sc.pushBucket(distItem{node: source, dist: 0, hops: 0}, w)
	g.settleBuckets(t, sc, skip, w)
	return t
}

// itemLess is the queue's total order: distance, then hops, then node.
func itemLess(a, b distItem) bool {
	if a.dist != b.dist {
		return a.dist < b.dist
	}
	if a.hops != b.hops {
		return a.hops < b.hops
	}
	return a.node < b.node
}

// settleBuckets is the Dijkstra main loop over the seeded bucket queue.
// Extraction scans the lowest non-empty bucket for its minimum under
// itemLess, so the pop sequence — and hence the tree, given the
// deterministic relaxation — is the one a binary heap under the same
// order would produce. Monotonicity holds because a relaxed label is
// never smaller than the label being settled, so pushes never land
// below the cursor.
func (g *Graph) settleBuckets(t *ShortestPathTree, sc *Scratch, skip []bool, width float64) {
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

// pushBucket queues it in bucket ⌊dist/width⌋, clamped to [0, overflow
// bucket]. The clamp compares in float before converting: a quotient
// beyond the int range (weights 1e-300 and 1, say) must not wrap.
func (sc *Scratch) pushBucket(it distItem, width float64) {
	bi := 0
	if q := it.dist / width; q >= maxBuckets-1 {
		bi = maxBuckets - 1
	} else if q > 0 {
		bi = int(q)
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
