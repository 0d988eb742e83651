package chaos

import (
	"reflect"
	"testing"

	"iris/internal/fibermap"
	"iris/internal/plan"
)

// hubPlan plans a seeded synthetic region in the centralized design: every
// DC pair walks DC-hub-DC over one of two hubs.
func hubPlan(t *testing.T, seed int64, dcs, failures int) *plan.Plan {
	t.Helper()
	gcfg := fibermap.DefaultGen()
	gcfg.Seed = seed
	m := fibermap.Generate(gcfg)
	pcfg := fibermap.DefaultPlace()
	pcfg.Seed, pcfg.N = seed, dcs
	sites, err := fibermap.PlaceDCs(m, pcfg)
	if err != nil {
		t.Fatalf("seed %d: place DCs: %v", seed, err)
	}
	caps := make(map[int]int)
	for _, dc := range sites {
		caps[dc] = 8
	}
	h1, h2 := fibermap.ChooseHubs(m, 6)
	pl, err := plan.New(plan.Input{Map: m, Capacity: caps, Lambda: 40, MaxFailures: failures, ViaHubs: []int{h1, h2}})
	if err != nil {
		t.Fatalf("seed %d: hub plan: %v", seed, err)
	}
	return pl
}

// auditMatchesOracle runs the Auditor serially and on four workers and
// requires both to equal the oracle's results exactly.
func auditMatchesOracle(t *testing.T, name string, pl *plan.Plan, scs []Scenario) {
	t.Helper()
	want := newOracleAuditor(pl).Run(scs, 0)
	a := NewAuditor(pl)
	for _, par := range []int{1, 4} {
		got := a.Run(scs, par)
		if reflect.DeepEqual(got, want) {
			continue
		}
		for i := range got {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("%s, parallelism %d: scenario %q\n got %+v\nwant %+v", name, par, scs[i].Name, got[i], want[i])
			}
		}
		t.Fatalf("%s, parallelism %d: results differ from the oracle", name, par)
	}
}

// TestAuditorMatchesOracle is the differential test of the scenario
// kernel: on distributed, centralized and larger sampled regions, every
// field of every result must equal the brute-force auditor's.
func TestAuditorMatchesOracle(t *testing.T) {
	dep := planSynthetic(t, 1, 10, 2)
	m := dep.Region.Map
	var scs []Scenario
	scs = append(scs, EnumerateCuts(m, 2)...)
	scs = append(scs, HutLossScenarios(m)...)
	scs = append(scs, DCLossScenarios(m)...)
	scs = append(scs, AmpFailureScenarios(dep.Plan)...)
	scs = append(scs, GeoEvents(1, m, 6, 20)...)
	auditMatchesOracle(t, "10-DC distributed", dep.Plan, scs)

	hub := hubPlan(t, 2, 8, 1)
	auditMatchesOracle(t, "8-DC via hubs", hub, EnumerateCuts(hub.Input.Map, 2))

	big := planSynthetic(t, 3, 20, 2)
	auditMatchesOracle(t, "20-DC sampled", big.Plan, SampleCuts(3, big.Region.Map, 2, 150))
}

// TestAuditAllocsFlat gates the warmed Auditor's allocations on an
// admissible, fully connected two-cut scenario: the bound is the same at
// 10 and 20 DCs, so the count must not grow with the region.
func TestAuditAllocsFlat(t *testing.T) {
	const bound = 8
	for _, dcs := range []int{10, 20} {
		dep := planSynthetic(t, 1, dcs, 2)
		a := NewAuditor(dep.Plan)
		var sc Scenario
		found := false
		for _, s := range EnumerateCuts(dep.Region.Map, 2) {
			if s.CutCount() == 2 && a.Audit(s).Survives {
				sc, found = s, true
				break
			}
		}
		if !found {
			t.Fatalf("%d DCs: no surviving two-cut scenario", dcs)
		}
		a.Audit(sc)
		if got := testing.AllocsPerRun(50, func() { a.Audit(sc) }); got > bound {
			t.Errorf("%d DCs: warmed Audit of %q allocates %.1f objects, want ≤ %d", dcs, sc.Name, got, bound)
		}
	}
}
