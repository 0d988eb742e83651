package chaos

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"iris/internal/graph"
	"iris/internal/optics"
	"iris/internal/parallel"
	"iris/internal/plan"
)

// Auditor replays failure scenarios against a finished plan and checks
// whether the provisioned capacities still admit the hose traffic.
//
// For each scenario it re-routes every DC pair around the cut on the
// planner's own plan.Evaluator (same deterministic Dijkstra tie-breaking,
// same hub walks for centralized plans) and per crossed duct applies the
// planner's need rule — the worst-case hose-model load of the crossing
// pairs plus the multi-crossing surcharge — against the base plus
// cut-through fiber leased there. Unlike the planner it counts every
// crossing pair, cut-through riders included: their load never exceeds
// the cut-through's provisioned size (the b-matching LP is subadditive
// over pair-set unions), so the cut-through fiber covers them. A pair a
// cut disconnects is skipped, matching the planner's own guarantee:
// Algorithm 1 owes no capacity to pairs with no surviving path, so
// admissibility means "every pair that still has a path gets its full
// hose demand", and Survives additionally demands that no pair lost its
// path.
//
// An Auditor is safe for concurrent Audit calls: each call takes a
// workspace (evaluator, flow network, cluster scratch) from a pool of
// idle ones and returns it, so the pool grows only to the peak number of
// concurrent calls. Run fans scenarios out over a worker pool.
type Auditor struct {
	in     plan.Input // the plan's input, Base resolved and shared
	dcs    []int
	baseKM []float64 // failure-free path length per pair index

	have  []int // duct ID -> base + cut-through fiber-pairs
	resid []int // duct ID -> residual fiber-pairs

	mu   sync.Mutex
	idle []*workspace
}

// workspace is one Audit call's scratch. Its evaluator keeps the hose
// memo warm across the scenarios it audits, and its flow network spans
// every provisioned duct once: a scenario zeroes its cut ducts' arcs and
// restores them afterwards.
type workspace struct {
	ev     *plan.Evaluator
	flow   *graph.FlowNetwork
	arc    []int // duct ID -> its first flow arc, -1 when unprovisioned
	parent []int // node ID -> union-find parent, over DC nodes
	size   []int // node ID -> cluster size, counted at roots by stranded
}

// NewAuditor prepares an auditor for the given plan. The plan's base graph
// is rebuilt unless the plan's input carried one.
func NewAuditor(pl *plan.Plan) *Auditor {
	in := pl.Input
	if in.Base == nil {
		in.Base = plan.BaseGraph(in.Map)
	}
	nDucts := len(in.Map.Ducts)
	a := &Auditor{
		in:    in,
		dcs:   in.Map.DCs(),
		have:  make([]int, nDucts),
		resid: make([]int, nDucts),
	}
	for id, du := range pl.Ducts {
		a.have[id] = du.BasePairs + du.CutThroughPairs
		a.resid[id] = du.ResidualPairs
	}
	// Failure-free route lengths, the baseline stretch is measured from.
	w := a.newWorkspace()
	a.baseKM = make([]float64, w.ev.NumPairs())
	for i, n := 0, w.ev.Route(nil); i < n; i++ {
		_, idx, km := w.ev.Routed(i)
		a.baseKM[idx] = km
	}
	a.idle = append(a.idle, w)
	return a
}

// get takes an idle workspace, building one when none is free.
func (a *Auditor) get() *workspace {
	a.mu.Lock()
	defer a.mu.Unlock()
	if n := len(a.idle); n > 0 {
		w := a.idle[n-1]
		a.idle = a.idle[:n-1]
		return w
	}
	return a.newWorkspace()
}

func (a *Auditor) put(w *workspace) {
	a.mu.Lock()
	a.idle = append(a.idle, w)
	a.mu.Unlock()
}

func (a *Auditor) newWorkspace() *workspace {
	m := a.in.Map
	w := &workspace{
		ev:     plan.NewEvaluator(a.in),
		flow:   graph.NewFlowNetwork(len(m.Nodes)),
		arc:    make([]int, len(m.Ducts)),
		parent: make([]int, len(m.Nodes)),
		size:   make([]int, len(m.Nodes)),
	}
	for id, d := range m.Ducts {
		w.arc[id] = -1
		if total := a.have[id] + a.resid[id]; total > 0 {
			w.arc[id] = w.flow.AddArc(d.A, d.B, float64(total))
			w.flow.AddArc(d.B, d.A, float64(total))
		}
	}
	return w
}

// Overload records one duct whose provisioned fiber cannot carry the
// worst-case hose load (or pair count, for residual fibers) a scenario
// routes across it.
type Overload struct {
	DuctID int `json:"duct"`
	// NeedPairs is the fiber the scenario requires on the duct.
	NeedPairs int `json:"need"`
	// HavePairs is the fiber the plan provisioned there.
	HavePairs int `json:"have"`
}

// Result is the audit outcome for one scenario.
type Result struct {
	Scenario Scenario `json:"scenario"`
	// Cuts is the number of ducts the scenario severed.
	Cuts int `json:"cuts"`
	// Admissible: every DC pair with a surviving path gets its full hose
	// demand within the provisioned fiber.
	Admissible bool `json:"admissible"`
	// Survives: admissible and no DC pair lost its path.
	Survives bool `json:"survives"`
	// DisconnectedPairs counts DC pairs with no surviving path;
	// DisconnectedDCs lists the DCs cut off from the largest surviving
	// DC cluster (ties broken toward the cluster holding the lowest ID).
	DisconnectedPairs int   `json:"disconnected_pairs"`
	DisconnectedDCs   []int `json:"disconnected_dcs,omitempty"`
	// Overloads are ducts whose hose load exceeds base plus cut-through
	// fiber; ResidualOverloads are ducts crossed by more pairs than
	// residual fibers provisioned (§4.3).
	Overloads         []Overload `json:"overloads,omitempty"`
	ResidualOverloads []Overload `json:"residual_overloads,omitempty"`
	// WorstPairFibers is the residual worst-pair throughput: the minimum
	// over surviving DC pairs of the max-flow between them across the
	// provisioned ducts (in fiber-pairs). 0 when no pair survives.
	WorstPairFibers float64 `json:"worst_pair_fibers"`
	// MaxStretch is the worst ratio of a pair's degraded path length to
	// its failure-free length (1 when routing is unchanged).
	MaxStretch float64 `json:"max_stretch"`
	// SLAViolations counts surviving pairs whose degraded path exceeds
	// the SLA fiber distance.
	SLAViolations int `json:"sla_violations"`
}

// Audit replays one scenario against the plan.
func (a *Auditor) Audit(sc Scenario) Result {
	w := a.get()
	defer a.put(w)
	res := Result{Scenario: sc, Cuts: sc.CutCount(), MaxStretch: 1}

	ev := w.ev
	routed := ev.Route(sc.Ducts)
	res.DisconnectedPairs = ev.NumPairs() - routed
	for _, dc := range a.dcs {
		w.parent[dc] = dc
	}
	for i := 0; i < routed; i++ {
		pair, idx, km := ev.Routed(i)
		w.union(pair.A, pair.B)
		if km > optics.MaxPathKM+1e-9 {
			res.SLAViolations++
		}
		if base := a.baseKM[idx]; base > 0 {
			if s := km / base; s > res.MaxStretch {
				res.MaxStretch = s
			}
		}
	}
	res.DisconnectedDCs = w.stranded(a.dcs)

	for _, id32 := range ev.Tabulate(nil) {
		id := int(id32)
		need, _, crossings := ev.Duct(id, nil)
		if have := a.have[id]; need > have {
			res.Overloads = append(res.Overloads, Overload{DuctID: id, NeedPairs: need, HavePairs: have})
		}
		if have := a.resid[id]; crossings > have {
			res.ResidualOverloads = append(res.ResidualOverloads, Overload{DuctID: id, NeedPairs: crossings, HavePairs: have})
		}
	}

	res.Admissible = len(res.Overloads) == 0 && len(res.ResidualOverloads) == 0
	res.Survives = res.Admissible && res.DisconnectedPairs == 0
	if routed > 0 {
		res.WorstPairFibers = w.worstPair(a, sc.Ducts)
	}
	return res
}

func (w *workspace) find(x int) int {
	for w.parent[x] != x {
		w.parent[x] = w.parent[w.parent[x]]
		x = w.parent[x]
	}
	return x
}

// union merges two DCs' clusters, rooting at the smaller ID.
func (w *workspace) union(x, y int) {
	rx, ry := w.find(x), w.find(y)
	w.parent[max(rx, ry)] = min(rx, ry)
}

// stranded returns the DCs outside the largest cluster the surviving
// pairs connect, ascending, or nil. Ties go to the cluster holding the
// lowest DC ID, so the result is deterministic even for an even split.
func (w *workspace) stranded(dcs []int) []int {
	for _, dc := range dcs {
		w.size[dc] = 0
	}
	for _, dc := range dcs {
		w.size[w.find(dc)]++
	}
	best := -1
	for _, dc := range dcs { // ascending IDs: first max wins ties
		if r := w.find(dc); best == -1 || w.size[r] > w.size[best] {
			best = r
		}
	}
	var out []int
	for _, dc := range dcs {
		if w.find(dc) != best {
			out = append(out, dc)
		}
	}
	return out
}

// worstPair returns the residual worst-pair throughput: the minimum over
// surviving DC pairs of their max-flow across the provisioned ducts that
// survive the cut (arc capacity = total leased fiber-pairs, both
// directions). Within one cluster that minimum is the minimum over
// members t of λ(root, t), because λ(a, c) ≥ min(λ(a, b), λ(b, c)) for
// any b; capacities are whole fiber-pair counts, so every flow is exact.
// That takes one max-flow per non-root DC instead of one per pair.
func (w *workspace) worstPair(a *Auditor, cuts []int) float64 {
	w.setCut(cuts, a, true)
	worst := math.Inf(1)
	for _, dc := range a.dcs {
		if r := w.find(dc); r != dc {
			w.flow.Reset()
			if flow := w.flow.MaxFlow(r, dc); flow < worst {
				worst = flow
			}
		}
	}
	w.setCut(cuts, a, false)
	return worst
}

// setCut zeroes (or restores) the flow arcs of the cut ducts.
func (w *workspace) setCut(cuts []int, a *Auditor, cut bool) {
	for _, id := range cuts {
		if id >= 0 && id < len(w.arc) && w.arc[id] >= 0 {
			c := float64(a.have[id] + a.resid[id])
			if cut {
				c = 0
			}
			w.flow.SetCapacity(w.arc[id], c)
			w.flow.SetCapacity(w.arc[id]+2, c)
		}
	}
}

// Run audits every scenario across the given number of workers (0 =
// GOMAXPROCS, 1 = serial). Results are in scenario order regardless of
// scheduling, and identical at every parallelism setting.
func (a *Auditor) Run(scenarios []Scenario, parallelism int) []Result {
	results := make([]Result, len(scenarios))
	_ = parallel.ForEach(len(scenarios), parallelism, func(i int) error {
		results[i] = a.Audit(scenarios[i])
		return nil
	})
	return results
}

// CurvePoint aggregates the audits of all scenarios severing the same
// number of ducts — one point of a survivability curve.
type CurvePoint struct {
	Cuts       int `json:"cuts"`
	Scenarios  int `json:"scenarios"`
	Admissible int `json:"admissible"`
	Surviving  int `json:"surviving"`
}

// FracAdmissible is the fraction of scenarios at this cut count whose
// surviving pairs all fit the provisioned fiber.
func (p CurvePoint) FracAdmissible() float64 {
	if p.Scenarios == 0 {
		return 0
	}
	return float64(p.Admissible) / float64(p.Scenarios)
}

// FracSurviving is the fraction of scenarios at this cut count the region
// fully survives (admissible and no pair disconnected).
func (p CurvePoint) FracSurviving() float64 {
	if p.Scenarios == 0 {
		return 0
	}
	return float64(p.Surviving) / float64(p.Scenarios)
}

// Curve aggregates audit results into a survivability curve: one point
// per distinct cut count, ascending.
func Curve(results []Result) []CurvePoint {
	byCuts := make(map[int]*CurvePoint)
	for _, r := range results {
		p := byCuts[r.Cuts]
		if p == nil {
			p = &CurvePoint{Cuts: r.Cuts}
			byCuts[r.Cuts] = p
		}
		p.Scenarios++
		if r.Admissible {
			p.Admissible++
		}
		if r.Survives {
			p.Surviving++
		}
	}
	cuts := make([]int, 0, len(byCuts))
	for c := range byCuts {
		cuts = append(cuts, c)
	}
	sort.Ints(cuts)
	out := make([]CurvePoint, 0, len(cuts))
	for _, c := range cuts {
		out = append(out, *byCuts[c])
	}
	return out
}

// Summary is a one-line digest of a result set, for logs and CLIs.
func Summary(results []Result) string {
	adm, surv := 0, 0
	for _, r := range results {
		if r.Admissible {
			adm++
		}
		if r.Survives {
			surv++
		}
	}
	return fmt.Sprintf("%d scenarios: %d admissible (%.1f%%), %d surviving (%.1f%%)",
		len(results), adm, 100*float64(adm)/float64(max(len(results), 1)),
		surv, 100*float64(surv)/float64(max(len(results), 1)))
}
