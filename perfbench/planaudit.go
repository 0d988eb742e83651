package main

import (
	"fmt"
	"time"

	"iris/internal/chaos"
	"iris/internal/core"
	"iris/internal/fibermap"
)

// planRegion is one seeded planning input of the plan-audit workload and
// the failure scenarios its plan is audited under.
type planRegion struct {
	class  string // size class, e.g. "dc10"; solve times are grouped by it
	id     string // class and index within the round, e.g. "dc10.0"
	region core.Region
	// exhaustive audits every ≤2 cut; otherwise a seeded sample of
	// planSample two-duct cuts.
	exhaustive bool
	seed       int64
}

func (pr planRegion) scenarios() []chaos.Scenario {
	if pr.exhaustive {
		return chaos.EnumerateCuts(pr.region.Map, planMaxFailures)
	}
	return chaos.SampleCuts(pr.seed, pr.region.Map, planMaxFailures, planSample)
}

// planClasses are the region sizes planned each round, in DCs, and how
// many fresh maps of each a round generates. Solve time depends on the
// map, so a run needs many maps for a steady median. The first 10-DC plan
// of a round is audited under every ≤2 cut; the rest under a seeded sample
// of planSample two-duct cuts, since one exhaustive audit takes about
// 1.3 s at 10 DCs and 9 s at 20 DCs serially on a 2-vCPU Xeon.
var planClasses = []struct{ dcs, maps int }{{10, 6}, {20, 2}}

const planSample = 150

// planMaxFailures is the duct-cut tolerance planned for and audited: the
// paper's operational default.
const planMaxFailures = 2

// planInputs generates one round's regions from its seed, with DCs placed
// by the paper's procedure. A seed whose map cannot host the class's DCs
// moves on to the next derived seed, so every seed yields a plannable
// input.
func planInputs(p params, roundSeed int64) ([]planRegion, error) {
	if p.toy {
		m := fibermap.Toy().Map
		return []planRegion{{class: "toy", id: "toy", region: regionOf(m), exhaustive: true}}, nil
	}
	var out []planRegion
	for i, class := range planClasses {
		name := fmt.Sprintf("dc%d", class.dcs)
		for k := 0; k < class.maps; k++ {
			var err error
			for try := int64(0); try < 16; try++ {
				seed := roundSeed*16 + int64(8*i+k) + try*7919
				gcfg := fibermap.DefaultGen()
				gcfg.Seed = seed
				m := fibermap.Generate(gcfg)
				pcfg := fibermap.DefaultPlace()
				pcfg.Seed, pcfg.N = seed, class.dcs
				if _, err = fibermap.PlaceDCs(m, pcfg); err == nil {
					out = append(out, planRegion{name, fmt.Sprintf("%s.%d", name, k), regionOf(m), len(out) == 0, seed})
					break
				}
			}
			if err != nil {
				return nil, fmt.Errorf("no placeable %d-DC map near seed %d: %w", class.dcs, roundSeed, err)
			}
		}
	}
	return out, nil
}

// regionOf gives every DC irisd's default capacity: 10 fiber-pairs of 40
// wavelengths.
func regionOf(m *fibermap.Map) core.Region {
	caps := make(map[int]int)
	for _, dc := range m.DCs() {
		caps[dc] = 10
	}
	return core.Region{Map: m, Capacity: caps, Lambda: 40}
}

// planTrace gathers the traced rounds' per-layer figures.
type planTrace struct {
	stages     map[string]*acc
	price, run acc
	scenarios  float64
	nScena     float64
	solves     int
	runAllocs  float64
	solveMS    map[string][]float64 // traced rounds' solve times
}

// runPlanAudit is the plan-audit workload: rounds of cold k=2 solves of
// each region followed by a ≤2-cut audit of its plan, as irisplan and
// irischaos run them, from one caller. Every round generates fresh maps
// from its own seed (their generation is the set-up time), so a run
// averages over many topologies.
func runPlanAudit(p params, o *outcome) error {
	var setups []float64
	pt := &planTrace{stages: map[string]*acc{}, solveMS: map[string][]float64{}}
	solveMS := map[string][]float64{}
	var scenarios, auditSecs float64
	verdicts := map[string]error{}
	hw := watchHeap()
	defer hw.stop()
	rt0 := readRuntime()
	deadline := time.Now().Add(p.dur)
	var regions []planRegion
	for round := 0; round == 0 || time.Now().Before(deadline); round++ {
		t0 := time.Now()
		var err error
		if regions, err = planInputs(p, episodeSeed(p.seed, round)); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		for _, pr := range regions {
			dep, err := solveCold(pr.region)
			o.attempted++
			if err != nil {
				o.failed++
				verdicts[pr.class] = err
				continue
			}
			solveMS[pr.class] = append(solveMS[pr.class], ms(dep.took))
			if p.trace {
				// A second, traced solve of the same map: traced and
				// untraced solves see the same inputs.
				tr, err := solveCold(pr.region)
				if err != nil {
					return err
				}
				pt.solveMS[pr.class] = append(pt.solveMS[pr.class], ms(tr.took))
				pt.observe(tr.Deployment, tr.took)
			}

			t0 := time.Now()
			auditor := chaos.NewAuditor(dep.Plan)
			scs := pr.scenarios()
			rt := readRuntime()
			t1 := time.Now()
			results := auditor.Run(scs, 1)
			run := time.Since(t1)
			auditSecs += time.Since(t0).Seconds()
			scenarios += float64(len(scs))
			o.attempted++
			if err := admissible(results); err != nil {
				o.failed++
				verdicts[pr.class] = err
			}
			if round == 0 {
				o.exact["plan.scenarios."+pr.id] = float64(dep.Plan.NScena)
				o.exact["chaos.scenarios."+pr.id] = float64(len(scs))
			}
			if p.trace {
				pt.runAllocs += float64(allocsSince(rt))
				pt.run.add(run)
				pt.scenarios += float64(len(scs))
			}
		}
	}
	first, last := regions[0].class, regions[len(regions)-1].class
	for _, c := range []string{first, last} {
		o.check("k=2 plans admissible under every audited ≤2 cut, "+c, verdicts[c])
	}
	hw.report(o)
	rt1 := readRuntime()
	o.e2e["setup_s"] = quantile(setups, 0.5)

	o.e2e["ops_per_s"] = ratio(scenarios, auditSecs)
	o.e2e["latency_p50_ms"] = quantile(solveMS[first], 0.5)
	o.e2e["latency_tail_ms"] = quantile(solveMS[last], 0.5)
	o.note("plan_p50_ms", o.e2e["latency_p50_ms"], "ms")
	o.note("plan_"+last+"_p50_ms", o.e2e["latency_tail_ms"], "ms")
	o.note("audit_scenarios_per_s", o.e2e["ops_per_s"], "1/s")
	o.note("plan_samples", float64(len(solveMS[first])), "count")
	if p.trace {
		pt.report(o)
		o.layer["gc.cpu_fraction"] = gcFraction(rt0, rt1)
		plain := quantile(solveMS[first], 0.5)
		traced := quantile(pt.solveMS[first], 0.5)
		o.layer["trace.overhead_pct"] = 100 * ratio(traced-plain, plain)
	}
	return nil
}

// timedDeployment is a cold solve's result and duration.
type timedDeployment struct {
	*core.Deployment
	took time.Duration
}

// solveCold plans a region with a fresh Solver, as irisplan does.
func solveCold(r core.Region) (timedDeployment, error) {
	t0 := time.Now()
	dep, err := core.NewSolver(core.Options{MaxFailures: planMaxFailures}).Solve(r)
	return timedDeployment{dep, time.Since(t0)}, err
}

func (pt *planTrace) observe(dep *core.Deployment, solve time.Duration) {
	planTotal := time.Duration(0)
	for _, st := range dep.Plan.Stages {
		if st.Stage == "total" {
			planTotal = st.Duration
			continue
		}
		a := pt.stages[st.Stage]
		if a == nil {
			a = &acc{}
			pt.stages[st.Stage] = a
		}
		a.add(st.Duration)
	}
	pt.solves++
	pt.price.add(solve - planTotal)
	pt.nScena += float64(dep.Plan.NScena)
}

func (pt *planTrace) report(o *outcome) {
	for _, st := range []string{"route", "amps", "cutthrough", "provision"} {
		a := pt.stages[st]
		if a == nil {
			a = &acc{}
		}
		o.layer["plan.stage_ms."+st] = a.meanMS()
	}
	o.layer["plan.scenarios"] = ratio(pt.nScena, float64(pt.solves))
	o.layer["cost.price_ms"] = pt.price.meanMS()
	o.layer["chaos.run_ms"] = pt.run.meanMS()
	o.layer["chaos.scenario_us"] = ratio(us(pt.run.total), pt.scenarios)
	o.layer["chaos.allocs_per_scenario"] = ratio(pt.runAllocs, pt.scenarios)
}

// admissible checks the paper's k-failure guarantee on an exhaustive
// audit: under every ≤k cut, each pair that keeps a path gets its full
// hose demand.
func admissible(results []chaos.Result) error {
	for _, r := range results {
		if !r.Admissible {
			return fmt.Errorf("scenario %s: not admissible (%d overloaded ducts, %d residual overloads)",
				r.Scenario.Name, len(r.Overloads), len(r.ResidualOverloads))
		}
	}
	return nil
}
