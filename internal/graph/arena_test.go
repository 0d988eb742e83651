package graph

import (
	"math/rand"
	"testing"
)

// treesEqual asserts two shortest-path trees agree bit-for-bit on every
// label and on every reconstructed path.
func treesEqual(t *testing.T, want, got *ShortestPathTree, n int) {
	t.Helper()
	if want.Source != got.Source {
		t.Fatalf("source %d != %d", got.Source, want.Source)
	}
	for v := 0; v < n; v++ {
		if want.Dist[v] != got.Dist[v] {
			t.Fatalf("node %d: dist %v != %v", v, got.Dist[v], want.Dist[v])
		}
		if want.Hops[v] != got.Hops[v] {
			t.Fatalf("node %d: hops %v != %v", v, got.Hops[v], want.Hops[v])
		}
		wn, we, wok := want.PathTo(v)
		gn, ge, gok := got.PathTo(v)
		if wok != gok || len(wn) != len(gn) || len(we) != len(ge) {
			t.Fatalf("node %d: path shape mismatch", v)
		}
		for i := range wn {
			if wn[i] != gn[i] {
				t.Fatalf("node %d: path node %d: %d != %d", v, i, gn[i], wn[i])
			}
		}
		for i := range we {
			if we[i].ID != ge[i].ID {
				t.Fatalf("node %d: path edge %d: %d != %d", v, i, ge[i].ID, we[i].ID)
			}
		}
	}
}

// The arena Dijkstra must reproduce the memoised one exactly: same
// graph filtered by a skip mask versus a WithoutEdges-derived clone,
// across random multigraphs, sources and removed-edge sets, with the
// tree and scratch reused (dirty) between trials.
func TestDijkstraIntoMatchesWithoutEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var tree ShortestPathTree
	var sc Scratch
	for trial := 0; trial < 300; trial++ {
		n := 2 + rng.Intn(14)
		m := rng.Intn(4 * n)
		g := randomGraph(rng, n, m)

		removed := make(map[int]bool)
		skip := make([]bool, g.NumEdges())
		for _, e := range g.Edges() {
			if rng.Intn(4) == 0 {
				removed[e.ID] = true
				idx, ok := g.EdgeIndex(e.ID)
				if !ok {
					t.Fatalf("edge %d has no index", e.ID)
				}
				skip[idx] = true
			}
		}
		source := rng.Intn(n)
		want := g.WithoutEdges(removed).Dijkstra(source)
		got := g.DijkstraInto(source, skip, &tree, &sc)
		treesEqual(t, want, got, n)
	}
}

// weightRegimes are the edge-weight generators the engine is checked
// under: a wide random range; all zeros, where no positive weight sets
// the bucket width; and a 1e-300/1 spread, whose distance-to-width
// quotients lie far beyond the int range.
var weightRegimes = []struct {
	name string
	w    func(*rand.Rand) float64
}{
	{"random", randomWeight},
	{"zero", func(*rand.Rand) float64 { return 0 }},
	{"spread", func(rng *rand.Rand) float64 {
		if rng.Intn(2) == 0 {
			return 1e-300
		}
		return 1
	}},
}

// The bucket-queue engine must reproduce the heap oracle's trees
// exactly: DijkstraInto with and without skip masks, and the memoised
// Dijkstra, on random multigraphs under every weight regime, with the
// trees and scratch reused (dirty) between trials.
func TestDijkstraBucketsMatchHeap(t *testing.T) {
	for _, wr := range weightRegimes {
		t.Run(wr.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(43))
			var bt, ht ShortestPathTree
			var bs, hs Scratch
			for trial := 0; trial < 300; trial++ {
				n := 2 + rng.Intn(14)
				m := rng.Intn(4 * n)
				g := weightedGraph(rng, n, m, wr.w)
				source := rng.Intn(n)
				want := g.dijkstraHeapInto(source, nil, &ht, &hs)
				treesEqual(t, want, g.DijkstraInto(source, nil, &bt, &bs), n)
				treesEqual(t, want, g.Dijkstra(source), n)

				skip := make([]bool, m)
				for i := range skip {
					skip[i] = rng.Intn(4) == 0
				}
				want = g.dijkstraHeapInto(source, skip, &ht, &hs)
				treesEqual(t, want, g.DijkstraInto(source, skip, &bt, &bs), n)
			}
		})
	}
}

// Pathological weight spreads force everything into the clamped
// overflow bucket; results must still be exact. With weights 1e-300 and
// 1, dist/width lies far beyond the int range, so the bucket index must
// clamp before it converts.
func TestDijkstraBucketsOverflowExact(t *testing.T) {
	wide := New(6)
	wide.AddEdge(0, 0, 1, 1e-6)
	wide.AddEdge(1, 1, 2, 1e6)
	wide.AddEdge(2, 2, 3, 1e-6)
	wide.AddEdge(3, 3, 4, 1e6)
	wide.AddEdge(4, 0, 5, 2e6)
	wide.AddEdge(5, 5, 4, 1e-6)
	tiny := New(4)
	tiny.AddEdge(0, 0, 1, 1e-300)
	tiny.AddEdge(1, 1, 2, 1)
	tiny.AddEdge(2, 2, 3, 1e-300)
	tiny.AddEdge(3, 0, 3, 1)
	var bt, ht ShortestPathTree
	var bs, hs Scratch
	for _, g := range []*Graph{wide, tiny} {
		for source := 0; source < g.NumNodes(); source++ {
			want := g.dijkstraHeapInto(source, nil, &ht, &hs)
			treesEqual(t, want, g.DijkstraInto(source, nil, &bt, &bs), g.NumNodes())
		}
	}
}

func TestAppendPathToMatchesPathTo(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	var nodes []int
	var edges []Edge
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(10)
		g := randomGraph(rng, n, 3*n)
		tr := g.Dijkstra(rng.Intn(n))
		for v := 0; v < n; v++ {
			wn, we, wok := tr.PathTo(v)
			nodes, edges = nodes[:0], edges[:0]
			gn, ge, gok := tr.AppendPathTo(v, nodes, edges)
			if wok != gok {
				t.Fatalf("ok mismatch at %d", v)
			}
			if len(gn) != len(wn) || len(ge) != len(we) {
				t.Fatalf("length mismatch at %d", v)
			}
			for i := range wn {
				if gn[i] != wn[i] {
					t.Fatalf("node mismatch at %d[%d]", v, i)
				}
			}
			for i := range we {
				if ge[i].ID != we[i].ID {
					t.Fatalf("edge mismatch at %d[%d]", v, i)
				}
			}
		}
	}
}

// A warmed DijkstraInto run must not allocate.
func TestDijkstraIntoZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	g := randomGraph(rng, 60, 200)
	skip := make([]bool, g.NumEdges())
	skip[7] = true
	var tree ShortestPathTree
	var sc Scratch
	g.DijkstraInto(0, skip, &tree, &sc)
	avg := testing.AllocsPerRun(20, func() {
		g.DijkstraInto(3, skip, &tree, &sc)
	})
	if avg != 0 {
		t.Fatalf("warmed DijkstraInto allocated %v per run, want 0", avg)
	}
}

func benchGraph() *Graph {
	rng := rand.New(rand.NewSource(9))
	return randomGraph(rng, 400, 1600)
}

// The bucket-vs-heap pair quantifies the queue choice for the
// BENCH_<sha>.json artifact set; DijkstraInto's default is the bucket
// queue whenever the width heuristic holds.
func BenchmarkDijkstraArenaBuckets(b *testing.B) {
	g := benchGraph()
	var tree ShortestPathTree
	var sc Scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.DijkstraInto(i%g.NumNodes(), nil, &tree, &sc)
	}
}

func BenchmarkDijkstraArenaHeap(b *testing.B) {
	g := benchGraph()
	var tree ShortestPathTree
	var sc Scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.dijkstraHeapInto(i%g.NumNodes(), nil, &tree, &sc)
	}
}
