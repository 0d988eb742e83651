package graph

// This file holds the reference implementations the engine in arena.go
// is checked against: a binary-heap Dijkstra and Bellman–Ford.

// dijkstraHeapInto is the reference Dijkstra: the relaxation of
// settleBuckets over a binary heap ordered by itemLess, behind the
// DijkstraInto reset protocol. The heap borrows the Scratch's first
// bucket as storage, so a warm run allocates nothing, like the engine.
func (g *Graph) dijkstraHeapInto(source int, skip []bool, t *ShortestPathTree, sc *Scratch) *ShortestPathTree {
	t.reset(g, source)
	sc.reset(g.n)
	if len(sc.buckets) == 0 {
		sc.buckets = append(sc.buckets, nil)
	}
	h := heapPushItem(sc.buckets[0], distItem{node: source, dist: 0, hops: 0})
	for len(h) > 0 {
		var it distItem
		h, it = heapPopItem(h)
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
				h = heapPushItem(h, distItem{node: v, dist: nd, hops: nh})
			}
		}
	}
	sc.buckets[0] = h
	return t
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

// BellmanFord computes single-source shortest path distances in O(V·E),
// a cross-check for Dijkstra on the same non-negative weights.
func (g *Graph) BellmanFord(source int) []float64 {
	dist := make([]float64, g.n)
	for i := range dist {
		dist[i] = Inf
	}
	dist[source] = 0
	for i := 0; i < g.n-1; i++ {
		changed := false
		for _, e := range g.edges {
			if dist[e.U]+e.W < dist[e.V] {
				dist[e.V] = dist[e.U] + e.W
				changed = true
			}
			if dist[e.V]+e.W < dist[e.U] {
				dist[e.U] = dist[e.V] + e.W
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return dist
}
