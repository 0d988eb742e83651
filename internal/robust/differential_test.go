package robust

import (
	"reflect"
	"testing"

	"iris/internal/core"
	"iris/internal/fibermap"
	"iris/internal/hose"
	"iris/internal/traffic"
)

// syntheticDep plans a seeded generated region with 8 DCs.
func syntheticDep(t *testing.T, seed int64) *core.Deployment {
	t.Helper()
	gcfg := fibermap.DefaultGen()
	gcfg.Seed = seed
	m := fibermap.Generate(gcfg)
	pcfg := fibermap.DefaultPlace()
	pcfg.Seed, pcfg.N = seed, 8
	sites, err := fibermap.PlaceDCs(m, pcfg)
	if err != nil {
		t.Fatal(err)
	}
	caps := make(map[int]int)
	for _, dc := range sites {
		caps[dc] = 8
	}
	dep, err := core.Plan(core.Region{Map: m, Capacity: caps, Lambda: 40}, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return dep
}

// TestVerifyMatchesOracle is the differential test of Verify on the
// scenario kernel: on seeded windows, against the allocation solved for
// them and against one solved for another window, every verdict must
// equal the oracle's exactly.
func TestVerifyMatchesOracle(t *testing.T) {
	check := func(name string, dep *core.Deployment, alloc core.Allocation, ms []*traffic.Matrix) []Verdict {
		t.Helper()
		got, want := Verify(dep, alloc, ms), oracleVerify(dep, alloc, ms)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: verdicts differ\n got %+v\nwant %+v", name, got, want)
		}
		return got
	}
	for _, dep := range []*core.Deployment{toyDep(t), syntheticDep(t, 4)} {
		var prev core.Allocation
		for _, seed := range []int64{1, 7, 42} {
			for _, util := range []float64{0.3, 0.6, 0.9} {
				ms := evolve(dep, seed, 6, util, 0.4)
				res, err := Solve(dep, ms, Config{})
				if err != nil {
					t.Fatal(err)
				}
				check("own envelope", dep, res.Alloc, ms)
				if prev.Fibers != nil {
					check("other envelope", dep, prev, ms)
				}
				prev = res.Alloc
			}
		}
	}

	// A clamped window past the hose caps: one DC sources more than its
	// 400 wavelengths, so the clamped allocation leaves pairs uncovered
	// and the matrix's own aggregates overload the ducts near that DC.
	dep := toyDep(t)
	dcs := dep.Region.Map.DCs()
	m1 := traffic.NewMatrix(dcs)
	m1.Set(hose.Pair{A: dcs[0], B: dcs[1]}, 390)
	m2 := traffic.NewMatrix(dcs)
	m2.Set(hose.Pair{A: dcs[0], B: dcs[2]}, 390)
	m3 := traffic.NewMatrix(dcs)
	m3.Set(hose.Pair{A: dcs[0], B: dcs[1]}, 450)
	m3.Set(hose.Pair{A: dcs[0], B: dcs[2]}, 450)
	m3.Set(hose.Pair{A: dcs[1], B: dcs[3]}, 200)
	ms := []*traffic.Matrix{m1, m2, m3}
	res, err := Solve(dep, ms, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Envelope.Clamped {
		t.Fatal("window past the hose caps was not clamped")
	}
	uncovered, overloaded := false, false
	for _, v := range check("clamped", dep, res.Alloc, ms) {
		uncovered = uncovered || len(v.Uncovered) > 0
		overloaded = overloaded || len(v.Overloads) > 0
	}
	if !uncovered || !overloaded {
		t.Fatalf("clamped window verdicts lack uncovered pairs (%v) or overloads (%v)", uncovered, overloaded)
	}
}
