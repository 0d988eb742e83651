package graph

import (
	"fmt"
	"math"
)

// FlowNetwork is a directed flow network for max-flow computations. It is
// separate from Graph because flow problems in the planner (hose-model
// provisioning) are built on derived directed graphs, not on the fiber map
// itself. The zero value is unusable; use NewFlowNetwork.
type FlowNetwork struct {
	n    int
	arcs []arc // forward/backward arcs interleaved: arc i's reverse is i^1
	head [][]int
	orig []float64 // as-built capacities, restored by Reset

	// MaxFlow scratch, kept so a network that is Reset and solved again
	// allocates nothing.
	level, iter, queue []int
}

type arc struct {
	to  int
	cap float64
}

// NewFlowNetwork returns a flow network with n nodes and no arcs.
func NewFlowNetwork(n int) *FlowNetwork {
	return &FlowNetwork{n: n, head: make([][]int, n)}
}

// NumNodes returns the number of nodes in the network.
func (f *FlowNetwork) NumNodes() int { return f.n }

// AddArc adds a directed arc from u to v with the given capacity and
// returns its index, usable with Flow after a MaxFlow run. Capacities must
// be non-negative; math.Inf(1) is allowed for unbounded arcs.
func (f *FlowNetwork) AddArc(u, v int, capacity float64) int {
	if u < 0 || u >= f.n || v < 0 || v >= f.n {
		panic(fmt.Sprintf("graph: arc (%d,%d) out of range [0,%d)", u, v, f.n))
	}
	if capacity < 0 || math.IsNaN(capacity) {
		panic(fmt.Sprintf("graph: arc (%d,%d) has invalid capacity %v", u, v, capacity))
	}
	idx := len(f.arcs)
	f.arcs = append(f.arcs, arc{to: v, cap: capacity}, arc{to: u, cap: 0})
	f.orig = append(f.orig, capacity, 0)
	f.head[u] = append(f.head[u], idx)
	f.head[v] = append(f.head[v], idx+1)
	return idx
}

// Reset restores every arc to its as-built capacity, discarding the
// residual state left by MaxFlow. It lets callers run independent max-flow
// computations on one network (e.g. one per traffic pair in a survivability
// audit) without rebuilding it per run.
func (f *FlowNetwork) Reset() {
	for i := range f.arcs {
		f.arcs[i].cap = f.orig[i]
	}
}

// SetCapacity changes an arc's as-built capacity, the value Reset
// restores. Zeroing an arc removes it from later runs without rebuilding
// the network (e.g. a duct a failure scenario cuts).
func (f *FlowNetwork) SetCapacity(arcIdx int, capacity float64) {
	f.orig[arcIdx] = capacity
	f.arcs[arcIdx].cap = capacity
}

// Flow returns the flow routed on the arc with the given index by the most
// recent MaxFlow call: the capacity consumed on the forward arc, i.e. the
// residual on its reverse.
func (f *FlowNetwork) Flow(arcIdx int) float64 {
	return f.arcs[arcIdx^1].cap
}

// MaxFlow computes the maximum s-t flow using Dinic's algorithm and returns
// its value. Capacities are consumed in place: calling MaxFlow twice on the
// same network continues from the previous residual state. Call Reset
// between runs for a fresh computation.
func (f *FlowNetwork) MaxFlow(s, t int) float64 {
	if s == t {
		return 0
	}
	const eps = 1e-12
	var total float64
	if len(f.level) < f.n {
		f.level, f.iter, f.queue = make([]int, f.n), make([]int, f.n), make([]int, 0, f.n)
	}
	level, iter, queue := f.level, f.iter, f.queue

	bfs := func() bool {
		for i := range level {
			level[i] = -1
		}
		queue = queue[:0]
		queue = append(queue, s)
		level[s] = 0
		for qi := 0; qi < len(queue); qi++ {
			u := queue[qi]
			for _, ai := range f.head[u] {
				a := f.arcs[ai]
				if a.cap > eps && level[a.to] < 0 {
					level[a.to] = level[u] + 1
					queue = append(queue, a.to)
				}
			}
		}
		return level[t] >= 0
	}

	var dfs func(u int, limit float64) float64
	dfs = func(u int, limit float64) float64 {
		if u == t {
			return limit
		}
		for ; iter[u] < len(f.head[u]); iter[u]++ {
			ai := f.head[u][iter[u]]
			a := &f.arcs[ai]
			if a.cap <= eps || level[a.to] != level[u]+1 {
				continue
			}
			pushed := dfs(a.to, math.Min(limit, a.cap))
			if pushed > eps {
				a.cap -= pushed
				f.arcs[ai^1].cap += pushed
				return pushed
			}
		}
		return 0
	}

	for bfs() {
		for i := range iter {
			iter[i] = 0
		}
		for {
			pushed := dfs(s, math.Inf(1))
			if pushed <= eps {
				break
			}
			total += pushed
		}
	}
	return total
}

// MinCutReachable returns, after a MaxFlow(s,t) run, the set of nodes
// reachable from s in the residual network. The arcs crossing from the set
// to its complement form a minimum cut.
func (f *FlowNetwork) MinCutReachable(s int) []bool {
	const eps = 1e-12
	seen := make([]bool, f.n)
	stack := []int{s}
	seen[s] = true
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, ai := range f.head[u] {
			a := f.arcs[ai]
			if a.cap > eps && !seen[a.to] {
				seen[a.to] = true
				stack = append(stack, a.to)
			}
		}
	}
	return seen
}
