package topoapi

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http/httptest"
	"net/url"
	"slices"
	"sort"
	"strings"
	"testing"

	"iris/internal/chaos"
	"iris/internal/core"
	"iris/internal/fibermap"
	"iris/internal/graph"
	"iris/internal/hose"
	"iris/internal/plan"
	"iris/internal/traffic"
)

// critRegion plans a seeded generated 10-DC region and loads it with a
// heavy-tailed demand matrix, so stranded sums add many unequal floats.
func critRegion(t *testing.T) Snapshot {
	t.Helper()
	gcfg := fibermap.DefaultGen()
	gcfg.Seed = 1
	m := fibermap.Generate(gcfg)
	pcfg := fibermap.DefaultPlace()
	pcfg.Seed, pcfg.N = 1, 10
	sites, err := fibermap.PlaceDCs(m, pcfg)
	if err != nil {
		t.Fatal(err)
	}
	caps := make(map[int]int)
	capsW := make(map[int]float64)
	for _, dc := range sites {
		caps[dc] = 8
		capsW[dc] = 8 * 40
	}
	dep, err := core.Plan(core.Region{Map: m, Capacity: caps, Lambda: 40}, core.Options{MaxFailures: 1})
	if err != nil {
		t.Fatal(err)
	}
	demand := traffic.HeavyTailed(rand.New(rand.NewSource(3)), m.DCs(), capsW, 0.6).Demand
	return Snapshot{Dep: dep, Demand: demand, Ready: true}
}

// sortedPairs returns the demand's pairs in ascending (A, B) order.
func sortedPairs(demand map[hose.Pair]float64) []hose.Pair {
	pairs := make([]hose.Pair, 0, len(demand))
	for p := range demand {
		pairs = append(pairs, p)
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].A != pairs[j].A {
			return pairs[i].A < pairs[j].A
		}
		return pairs[i].B < pairs[j].B
	})
	return pairs
}

// withoutDucts rebuilds base without the cut ducts.
func withoutDucts(base *graph.Graph, cut []int) *graph.Graph {
	h := graph.New(base.NumNodes())
	for _, e := range base.Edges() {
		if !slices.Contains(cut, e.ID) {
			h.AddEdge(e.ID, e.U, e.V, e.W)
		}
	}
	return h
}

// oracleStranded is strandedDemand on a graph rebuilt without the cut
// ducts, summed in ascending pair order.
func oracleStranded(base *graph.Graph, cut []int, demand map[hose.Pair]float64) float64 {
	comps := withoutDucts(base, cut).Components(nil)
	total := 0.0
	for _, p := range sortedPairs(demand) {
		if comps[p.A] != comps[p.B] {
			total += demand[p]
		}
	}
	return total
}

// oracleCritical is the /api/critical body computed with a graph copy
// per cut set.
func oracleCritical(snap Snapshot, k int) map[string]any {
	base := plan.BaseGraph(snap.Dep.Region.Map)
	m := snap.Dep.Region.Map
	var ids []int
	rows := make(map[int]*CriticalDuct)
	for _, e := range base.Edges() {
		ids = append(ids, e.ID)
		rows[e.ID] = &CriticalDuct{Duct: e.ID, From: e.U, To: e.V, KM: e.W}
	}
	for _, id := range base.Bridges() {
		rows[id].Bridge = true
	}
	graph.FailureScenarios(ids, k, func(cut []int) {
		if len(cut) == 0 {
			return
		}
		stranded := oracleStranded(base, cut, snap.Demand)
		if stranded == 0 {
			return
		}
		for _, id := range cut {
			row := rows[id]
			if stranded > row.StrandedDemand {
				row.StrandedDemand = stranded
			}
			if len(cut) == 1 {
				row.SoloStranded = stranded
			}
		}
	})
	var pairs []hose.Pair
	for _, p := range sortedPairs(snap.Demand) {
		if snap.Demand[p] > 0 {
			pairs = append(pairs, p)
		}
	}
	f := graph.NewFlowNetwork(len(m.Nodes))
	for _, id := range ids {
		if du := snap.Dep.Plan.Ducts[id]; du != nil && du.TotalPairs() > 0 {
			d := m.Ducts[id]
			f.AddArc(d.A, d.B, float64(du.TotalPairs()))
			f.AddArc(d.B, d.A, float64(du.TotalPairs()))
		}
	}
	for _, p := range pairs {
		f.Reset()
		f.MaxFlow(p.A, p.B)
		seen := f.MinCutReachable(p.A)
		for _, id := range ids {
			if du := snap.Dep.Plan.Ducts[id]; du != nil && du.TotalPairs() > 0 {
				if d := m.Ducts[id]; seen[d.A] != seen[d.B] {
					rows[id].MinCutPairs++
				}
			}
		}
	}
	out := make([]CriticalDuct, 0, len(rows))
	for _, row := range rows {
		out = append(out, *row)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.StrandedDemand != b.StrandedDemand {
			return a.StrandedDemand > b.StrandedDemand
		}
		if a.SoloStranded != b.SoloStranded {
			return a.SoloStranded > b.SoloStranded
		}
		if a.MinCutPairs != b.MinCutPairs {
			return a.MinCutPairs > b.MinCutPairs
		}
		return a.Duct < b.Duct
	})
	return map[string]any{"k": k, "ducts": out}
}

func getBody(t *testing.T, srv *httptest.Server, path string) []byte {
	t.Helper()
	res, err := srv.Client().Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	body, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	if res.StatusCode != 200 {
		t.Fatalf("GET %s: status %d: %s", path, res.StatusCode, body)
	}
	return body
}

func encodeBody(v any) []byte {
	rec := httptest.NewRecorder()
	writeJSON(rec, v)
	return rec.Body.Bytes()
}

// TestCriticalAndWhatIfMatchOracle compares the served /api/critical and
// /api/whatif bodies byte for byte with the graph-copy oracle.
func TestCriticalAndWhatIfMatchOracle(t *testing.T) {
	snap := critRegion(t)
	srv := newTestServer(t, Config{State: func() Snapshot { return snap }})
	for _, k := range []int{1, 2} {
		got := getBody(t, srv, fmt.Sprintf("/api/critical?k=%d", k))
		if want := encodeBody(oracleCritical(snap, k)); string(got) != string(want) {
			t.Fatalf("critical k=%d differs from the oracle\n got %s\nwant %s", k, got, want)
		}
	}

	m := snap.Dep.Region.Map
	base := plan.BaseGraph(m)
	auditor := chaos.NewAuditor(snap.Dep.Plan)
	dcs := m.DCs()
	specs := []string{
		"cut:0",
		fmt.Sprintf("cut:%d,%d", base.Edges()[1].ID, base.Edges()[5].ID),
		fmt.Sprintf("dc:%d", dcs[0]),
		fmt.Sprintf("dc:%d", dcs[len(dcs)-1]),
		"geo:0,0,8",
	}
	for _, spec := range specs {
		sc, err := chaos.ParseScenario(m, spec)
		if err != nil {
			t.Fatal(err)
		}
		want := encodeBody(map[string]any{
			"scenario":        sc,
			"result":          auditor.Audit(sc),
			"stranded_demand": oracleStranded(base, sc.Ducts, snap.Demand),
		})
		if got := getBody(t, srv, "/api/whatif?scenario="+url.QueryEscape(spec)); string(got) != string(want) {
			t.Fatalf("whatif %s differs from the oracle\n got %s\nwant %s", spec, got, want)
		}
	}
}

// TestStrandedDemandDeterministic: identical what-if requests must report
// bit-identical stranded demand. The cut chosen strands the most pairs
// of any single or double cut, so an order-dependent float sum would show.
func TestStrandedDemandDeterministic(t *testing.T) {
	snap := critRegion(t)
	srv := newTestServer(t, Config{State: func() Snapshot { return snap }})
	base := plan.BaseGraph(snap.Dep.Region.Map)
	var ids []int
	for _, e := range base.Edges() {
		ids = append(ids, e.ID)
	}
	bestCut, bestN := "", 0
	graph.FailureScenarios(ids, 2, func(cut []int) {
		comps, n := withoutDucts(base, cut).Components(nil), 0
		for p := range snap.Demand {
			if comps[p.A] != comps[p.B] {
				n++
			}
		}
		if n > bestN {
			var cs []string
			for _, id := range cut {
				cs = append(cs, fmt.Sprint(id))
			}
			bestN, bestCut = n, strings.Join(cs, ",")
		}
	})
	if bestN < 2 {
		t.Fatalf("no cut strands two or more pairs")
	}
	spec := "cut:" + bestCut
	var first float64
	for i := 0; i < 200; i++ {
		var body struct {
			Stranded float64 `json:"stranded_demand"`
		}
		if err := json.Unmarshal(getBody(t, srv, "/api/whatif?scenario="+url.QueryEscape(spec)), &body); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = body.Stranded
		} else if body.Stranded != first {
			t.Fatalf("call %d: stranded demand %v, first call said %v", i, body.Stranded, first)
		}
	}
}
