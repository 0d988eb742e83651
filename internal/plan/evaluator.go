package plan

import (
	"math"
	"slices"

	"iris/internal/graph"
	"iris/internal/hose"
)

// Evaluator is Algorithm 1's per-scenario kernel (§4.1) over one region.
// For one set of cut ducts it
//
//   - routes every DC pair around the cut with the skip-mask DijkstraInto:
//     the shortest surviving path, or the best DC-hub-DC walk when the
//     region routes via hubs;
//   - tabulates, per crossed duct, the pairs crossing it with their
//     multiplicity (a hub walk may cross a duct twice) and the number of
//     crossings;
//   - applies the need rule: a duct needs
//     ceil(WorstCaseLoad(crossing pairs) + Σ(k−1)·min(capA, capB) − 1e-9)
//     fiber-pairs, k being a pair's multiplicity.
//
// The Planner runs it for every scenario it enumerates; chaos.Auditor
// and robust.Verify run it to check a finished plan. Worst-case loads at
// the region's own capacities are memoised by crossing-pair set, so an
// evaluator that keeps meeting the same sets stops paying for max-flows.
// An Evaluator is not safe for concurrent use.
type Evaluator struct {
	base   *graph.Graph
	dcs    []int
	nDC    int
	caps   map[int]float64 // DC -> capacity (float for hose calls)
	pairAB []hose.Pair     // pairIdx -> canonical pair
	hubs   []int

	// Routing.
	skip     []bool // per base edge index
	dijk     graph.Scratch
	ownTrees []graph.ShortestPathTree
	curTrees []*graph.ShortestPathTree
	ownHub   []graph.ShortestPathTree
	curHub   []*graph.ShortestPathTree
	legN     []int
	legE     []graph.Edge
	recs     []pathRec // one slot per DC pair
	nRecs    int

	// Crossing tables (per duct ID), generation-stamped so a scenario
	// resets only the ducts the previous one touched.
	cross     [][]crossEntry
	crossGen  []uint32
	crossSeq  uint32
	residCnt  []int32
	crossList []int32

	// Hose-load memo, keyed by sorted pairIdx sequences. Survives across
	// solves while the planner's fingerprint holds — the dominant
	// cross-solve win.
	hoseIdx   seqIndex
	hoseLoads []float64
	keyBuf    []int32
	pairsBuf  []hose.Pair
}

// crossEntry is one DC pair's crossing count on a duct within a
// scenario (hub walks may cross a duct more than once).
type crossEntry struct {
	pairIdx int32
	count   int32
}

// NewEvaluator returns an evaluator for the region of in: its Map,
// Capacity and ViaHubs, and Base when set (otherwise BaseGraph(Map)).
// The input is trusted to be one a plan was built from.
func NewEvaluator(in Input) *Evaluator {
	e := &Evaluator{}
	e.prepare(in)
	return e
}

// prepare sizes every slab for the region and drops the hose memo.
func (e *Evaluator) prepare(in Input) {
	e.base = in.Base
	if e.base == nil {
		e.base = BaseGraph(in.Map)
	}
	e.dcs = in.Map.DCs()
	e.nDC = len(e.dcs)
	nDucts := e.base.MaxEdgeID() + 1
	nPairs := e.nDC * (e.nDC - 1) / 2

	e.caps = make(map[int]float64, e.nDC)
	for _, dc := range e.dcs {
		e.caps[dc] = float64(in.Capacity[dc])
	}
	e.pairAB = e.pairAB[:0]
	for i := 0; i < e.nDC; i++ {
		for j := i + 1; j < e.nDC; j++ {
			e.pairAB = append(e.pairAB, hose.Pair{A: e.dcs[i], B: e.dcs[j]})
		}
	}
	e.hubs = append(e.hubs[:0], in.ViaHubs...)

	e.skip = make([]bool, e.base.NumEdges())
	e.ownTrees = make([]graph.ShortestPathTree, e.nDC)
	e.curTrees = make([]*graph.ShortestPathTree, e.nDC)
	e.ownHub = make([]graph.ShortestPathTree, len(e.hubs))
	e.curHub = make([]*graph.ShortestPathTree, len(e.hubs))
	e.recs = make([]pathRec, nPairs)

	e.cross = make([][]crossEntry, nDucts)
	e.crossGen = make([]uint32, nDucts)
	e.residCnt = make([]int32, nDucts)

	e.hoseIdx.reset()
	e.hoseLoads = e.hoseLoads[:0]
}

// pairIdx maps DC positions i<j (in dcs order) to the dense pair index;
// the enumeration order makes ascending indices coincide with ascending
// (A, B) pairs, which load's key ordering relies on.
func (e *Evaluator) pairIdx(i, j int) int32 {
	return int32(i*e.nDC - i*(i+1)/2 + j - i - 1)
}

// route computes every DC pair's route into the rec slab, skipping
// pairs the cut disconnects, and returns the number of routed pairs.
// The failure-free scenario (skip == nil) reads the base graph's
// memoised trees, which are shared across solves and, through
// Input.Base, across planners.
func (e *Evaluator) route(skip []bool) int {
	e.nRecs = 0
	if len(e.hubs) > 0 {
		for hi, h := range e.hubs {
			if skip == nil {
				e.curHub[hi] = e.base.Dijkstra(h)
			} else {
				e.curHub[hi] = e.base.DijkstraInto(h, skip, &e.ownHub[hi], &e.dijk)
			}
		}
		for i := range e.dcs {
			for j := i + 1; j < e.nDC; j++ {
				a, b := e.dcs[i], e.dcs[j]
				// Best DC-hub-DC walk; legs may share ducts (both DCs
				// behind one trunk) and the crossing table records the
				// double crossing.
				best := graph.Inf
				var bt *graph.ShortestPathTree
				for _, t := range e.curHub {
					if d := t.Dist[a] + t.Dist[b]; d < best && d < graph.Inf {
						best, bt = d, t
					}
				}
				if bt == nil {
					continue
				}
				r := e.nextRec(i, j)
				e.legN, e.legE, _ = bt.AppendPathTo(a, e.legN[:0], e.legE[:0])
				for k := len(e.legN) - 1; k >= 0; k-- {
					r.nodes = append(r.nodes, e.legN[k])
				}
				for k := len(e.legE) - 1; k >= 0; k-- {
					r.ducts = append(r.ducts, e.legE[k])
				}
				e.legN, e.legE, _ = bt.AppendPathTo(b, e.legN[:0], e.legE[:0])
				r.nodes = append(r.nodes, e.legN[1:]...)
				r.ducts = append(r.ducts, e.legE...)
				r.totalKM = best
			}
		}
		return e.nRecs
	}

	for di, dc := range e.dcs {
		if skip == nil {
			e.curTrees[di] = e.base.Dijkstra(dc)
		} else {
			e.curTrees[di] = e.base.DijkstraInto(dc, skip, &e.ownTrees[di], &e.dijk)
		}
	}
	for i := range e.dcs {
		t := e.curTrees[i]
		for j := i + 1; j < e.nDC; j++ {
			b := e.dcs[j]
			if math.IsInf(t.Dist[b], 1) {
				continue // cut disconnected this pair; no guarantee owed
			}
			r := e.nextRec(i, j)
			r.nodes, r.ducts, _ = t.AppendPathTo(b, r.nodes, r.ducts)
			r.totalKM = t.Dist[b]
		}
	}
	return e.nRecs
}

// nextRec claims the next rec slot for DC positions i<j, resetting its
// reused slices.
func (e *Evaluator) nextRec(i, j int) *pathRec {
	r := &e.recs[e.nRecs]
	e.nRecs++
	r.pair = hose.Pair{A: e.dcs[i], B: e.dcs[j]}
	r.pairIdx = e.pairIdx(i, j)
	r.nodes = r.nodes[:0]
	r.ducts = r.ducts[:0]
	r.totalKM = 0
	r.ampNode = -1
	r.bypass = r.bypass[:0]
	r.cutDucts = r.cutDucts[:0]
	return r
}

// Tabulate builds the per-duct crossing tables of the last Route call's
// routes, restricted to the pair indices keep marks (nil keeps every
// route), and returns the crossed duct IDs in ascending order; the slice
// is reused by the next call. Every crossing counts toward a duct's
// crossings, but a duct a route rides on a cut-through (only the planner
// places those) gets no crossing entry for that pair, since the
// cut-through fiber carries it there.
func (e *Evaluator) Tabulate(keep []bool) []int32 {
	recs := e.recs[:e.nRecs]
	e.crossSeq++
	if e.crossSeq == 0 { // stamp wraparound: invalidate all tables
		clear(e.crossGen)
		e.crossSeq = 1
	}
	e.crossList = e.crossList[:0]
	for ri := range recs {
		pr := &recs[ri]
		if keep != nil && !keep[pr.pairIdx] {
			continue
		}
		for _, d := range pr.ducts {
			id := d.ID
			if e.crossGen[id] != e.crossSeq {
				e.crossGen[id] = e.crossSeq
				e.cross[id] = e.cross[id][:0]
				e.residCnt[id] = 0
				e.crossList = append(e.crossList, int32(id))
			}
			e.residCnt[id]++
			if pr.onCutThrough(id) {
				continue
			}
			entries := e.cross[id]
			found := false
			for k := range entries {
				if entries[k].pairIdx == pr.pairIdx {
					entries[k].count++
					found = true
					break
				}
			}
			if !found {
				e.cross[id] = append(entries, crossEntry{pairIdx: pr.pairIdx, count: 1})
			}
		}
	}
	slices.Sort(e.crossList)
	return e.crossList
}

// load returns hose.WorstCaseLoad of the pairs idx names, sorting idx in
// place (duplicates are harmless: WorstCaseLoad coalesces them). With
// caps nil the loads are taken at the region's capacities and memoised
// by the sorted sequence; the memo outlives individual solves, so a
// re-solved region pays for no max-flow at all.
func (e *Evaluator) load(idx []int32, caps map[int]float64) float64 {
	slices.Sort(idx)
	memo := caps == nil
	if memo {
		id, added := e.hoseIdx.intern(idx)
		if !added {
			return e.hoseLoads[id]
		}
		caps = e.caps
	}
	e.pairsBuf = e.pairsBuf[:0]
	for _, pi := range idx {
		e.pairsBuf = append(e.pairsBuf, e.pairAB[pi])
	}
	load := hose.WorstCaseLoad(caps, e.pairsBuf)
	if memo {
		e.hoseLoads = append(e.hoseLoads, load)
	}
	return load
}

// NumPairs returns the number of DC pairs in the region.
func (e *Evaluator) NumPairs() int { return len(e.pairAB) }

// Route routes every DC pair around the cut ducts (IDs outside the base
// graph are ignored) and returns how many pairs still have a route.
func (e *Evaluator) Route(cuts []int) int {
	if len(cuts) == 0 {
		return e.route(nil)
	}
	e.setSkip(cuts, true)
	defer e.setSkip(cuts, false)
	return e.route(e.skip)
}

func (e *Evaluator) setSkip(cuts []int, on bool) {
	for _, d := range cuts {
		if idx, ok := e.base.EdgeIndex(d); ok {
			e.skip[idx] = on
		}
	}
}

// Routed returns route i < Route's result of the last Route call: the
// pair, its dense index (DC pairs numbered in ascending (A, B) order, as
// routes come) and its length in km.
func (e *Evaluator) Routed(i int) (pair hose.Pair, idx int, km float64) {
	r := &e.recs[i]
	return r.pair, int(r.pairIdx), r.totalKM
}

// Duct reports a duct of the last crossing table: the fiber-pairs the
// need rule asks of it under caps (nil: the region's capacities, with
// loads memoised), the distinct pairs crossing it, and its crossings
// counted with multiplicity.
func (e *Evaluator) Duct(id int, caps map[int]float64) (need, pairs, crossings int) {
	c := caps
	if c == nil {
		c = e.caps
	}
	e.keyBuf = e.keyBuf[:0]
	extra := 0.0
	for _, en := range e.cross[id] {
		e.keyBuf = append(e.keyBuf, en.pairIdx)
		if en.count > 1 {
			pair := e.pairAB[en.pairIdx]
			extra += float64(en.count-1) * math.Min(c[pair.A], c[pair.B])
		}
	}
	need = int(math.Ceil(e.load(e.keyBuf, caps) + extra - 1e-9))
	return need, len(e.cross[id]), int(e.residCnt[id])
}
