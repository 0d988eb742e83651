package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"iris/internal/chaos"
	"iris/internal/core"
	"iris/internal/daemon"
	"iris/internal/hose"
	"iris/internal/telemetry"
)

// benchmarkJSON is the repository's BENCHMARK.json, the contract every
// result line must meet.
type benchmarkJSON struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []specMetric `json:"end_to_end"`
	PerLayer  []specMetric `json:"per_layer"`
}

func loadBenchmark(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestSpecMatchesBenchmark pins spec.json, which the program reports from,
// to BENCHMARK.json: same workloads, metric names, units and directions.
func TestSpecMatchesBenchmark(t *testing.T) {
	b := loadBenchmark(t)
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	strip := func(ms []specMetric) []specMetric {
		out := make([]specMetric, len(ms))
		for i, m := range ms {
			out[i] = specMetric{Name: m.Name, Unit: m.Unit, Better: m.Better}
		}
		return out
	}
	if !reflect.DeepEqual(strip(sp.EndToEnd), strip(b.EndToEnd)) {
		t.Errorf("end-to-end metrics differ:\nspec.json      %v\nBENCHMARK.json %v", strip(sp.EndToEnd), strip(b.EndToEnd))
	}
	if !reflect.DeepEqual(strip(sp.PerLayer), strip(b.PerLayer)) {
		t.Errorf("per-layer metrics differ:\nspec.json      %v\nBENCHMARK.json %v", strip(sp.PerLayer), strip(b.PerLayer))
	}
	if len(sp.Workloads) != len(b.Workloads) {
		t.Fatalf("%d workloads in spec.json, %d in BENCHMARK.json", len(sp.Workloads), len(b.Workloads))
	}
	for i, w := range b.Workloads {
		sw := sp.Workloads[i]
		if sw.Name != w.Name || sw.Why != w.Why {
			t.Errorf("workload %d: spec.json %q, BENCHMARK.json %q", i, sw.Name, w.Name)
		}
		if sw.Loop == "" || sw.Drive == "" || sw.Sizes == "" || sw.Seed == "" {
			t.Errorf("workload %s: loop, drive, sizes and seed must all be recorded", w.Name)
		}
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %q has no implementation", w.Name)
		}
	}
	if sp.Environment["oss_settle_ms"] != 0.0 || !strings.Contains(fmt.Sprint(sp.Environment["transport"]), "loopback") {
		t.Errorf("environment must record OSS settling 0 and loopback transport: %v", sp.Environment)
	}
	for _, m := range sp.EndToEnd {
		for _, w := range b.Workloads {
			if m.Means[w.Name] == "" {
				t.Errorf("%s: no meaning stated for workload %s", m.Name, w.Name)
			}
		}
	}
	for _, m := range sp.PerLayer {
		if len(m.Moves) == 0 {
			t.Errorf("%s: no end-to-end metric named that it should move", m.Name)
		}
	}
}

// TestSmokeEveryWorkload runs each workload briefly on toy regions, traced
// and untraced, and checks the result line: correct, and every metric of
// BENCHMARK.json printed with its unit.
func TestSmokeEveryWorkload(t *testing.T) {
	b := loadBenchmark(t)
	for _, w := range b.Workloads {
		for _, tr := range []int{0, 1} {
			t.Run(fmt.Sprintf("%s/trace%d", w.Name, tr), func(t *testing.T) {
				var out, errb bytes.Buffer
				args := []string{"--workload", w.Name, "--seed", "3", "--seconds", "0.3",
					"--trace", fmt.Sprint(tr), "--toy", "--state", t.TempDir()}
				if code := run(args, &out, &errb); code != 0 {
					t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, out.String(), errb.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v", err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("result %+v", res)
				}
				want := b.EndToEnd
				if tr == 1 {
					want = b.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics printed, %d named", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("%s: printed %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
					}
					if tr == 0 && !(got.Value > 0) {
						t.Errorf("%s = %v, end-to-end metrics are never 0", m.Name, got.Value)
					}
				}
			})
		}
	}
}

// TestAssemblyMatchesBuildRegion checks that the benchmark's region, built
// piecewise so its taps can sit on the feed and devices, behaves exactly
// like the one irisd builds through daemon.BuildRegion.
func TestAssemblyMatchesBuildRegion(t *testing.T) {
	for _, robustMode := range []bool{false, true} {
		spec := regionSpec{toy: true, seed: 5, tapDevices: true}
		cfg := daemon.DefaultRegionConfig()
		cfg.Seed, cfg.OSSDelay, cfg.ShiftBound = 5, 0, 0
		if robustMode {
			spec.shiftBound, spec.robust, spec.flowLoad = 0.1, true, true
			cfg.ShiftBound, cfg.Robust, cfg.FlowLoad = 0.1, true, true
		}
		mine, err := buildRegion(spec)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := daemon.BuildRegion(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 40; i++ {
			mine.d.Step()
			ref.Daemon.Step()
			a, _ := mine.d.CommittedAlloc()
			b, _ := ref.Daemon.CommittedAlloc()
			if err := allocEqual(a, b); err != nil {
				t.Fatalf("robust=%v step %d: %v", robustMode, i, err)
			}
		}
		for _, name := range []string{"iris_reconfig_total", "iris_reconfig_ops_total", "iris_robust_escapes_total"} {
			if got, want := counterValue(mine.reg, name), counterValue(ref.Registry, name); got != want {
				t.Errorf("robust=%v %s: %v, irisd's assembly %v", robustMode, name, got, want)
			}
		}
		mine.close()
		ref.Close()
	}
}

// counterValue reads a counter, 0 when it is not registered.
func counterValue(reg *telemetry.Registry, name string) float64 {
	if c := reg.LookupCounter(name); c != nil {
		return c.Value()
	}
	return 0
}

// TestExactCountsRepeat runs one seed twice and requires identical counts.
func TestExactCountsRepeat(t *testing.T) {
	for _, name := range []string{"converge", "robust", "plan-audit"} {
		var counts []map[string]float64
		for i := 0; i < 2; i++ {
			o := newOutcome()
			p := params{seed: 7, dur: 10 * time.Millisecond, toy: true}
			if err := workloads[name](p, o); err != nil {
				t.Fatal(err)
			}
			if len(o.exact) == 0 {
				t.Fatalf("%s reports no exact counts", name)
			}
			counts = append(counts, o.exact)
		}
		if err := compareExact(counts[0], counts[1]); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	dir := t.TempDir()
	p := params{seed: 1}
	if err := checkExact(dir, "w", p, map[string]float64{"n": 3}); err != nil {
		t.Fatal(err)
	}
	if err := checkExact(dir, "w", p, map[string]float64{"n": 3}); err != nil {
		t.Fatalf("same counts: %v", err)
	}
	if err := checkExact(dir, "w", p, map[string]float64{"n": 4}); err == nil {
		t.Fatal("a drifted count passed")
	}
}

// TestChecksCatchCorruption feeds every correctness check a corrupted
// expected value (or corrupted device state) and requires it to fail,
// after passing on the true one.
func TestChecksCatchCorruption(t *testing.T) {
	t.Run("allocation", func(t *testing.T) {
		r, err := buildRegion(regionSpec{toy: true, seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		defer r.close()
		for i := 0; i < 5; i++ {
			r.d.Step()
		}
		got, _ := r.d.CommittedAlloc()
		st, err := r.rig.Dep.AllocateState(r.feed.last)
		if err != nil {
			t.Fatal(err)
		}
		want := st.Snapshot()
		if err := allocEqual(got, want); err != nil {
			t.Fatalf("true expectation rejected: %v", err)
		}
		bad := core.Allocation{Fibers: map[hose.Pair]int{}, Residual: want.Residual}
		for p, f := range want.Fibers {
			bad.Fibers[p] = f
		}
		for p := range bad.Fibers {
			bad.Fibers[p]++
			break
		}
		if allocEqual(got, bad) == nil {
			t.Fatal("corrupted expected allocation accepted")
		}
	})
	t.Run("device audit", func(t *testing.T) {
		r, err := buildRegion(regionSpec{toy: true, seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		defer r.close()
		r.d.Step()
		o := newOutcome()
		checkLoop(o, r, regionSpec{})
		if o.failed != 0 {
			t.Fatalf("healthy region failed its checks: %v", o.errs)
		}
		// Disable a live transceiver behind the controller's back.
		dc := r.rig.Dep.Region.Map.DCs()[0]
		if _, err := r.rig.Testbed.Controller.Call(r.rig.Fab.XcvrName(dc), "disable", map[string]any{"idx": 0}); err != nil {
			t.Fatal(err)
		}
		checkLoop(o, r, regionSpec{})
		if o.failed == 0 {
			t.Fatal("diverged device state passed the audit check")
		}
	})
	t.Run("k-failure guarantee", func(t *testing.T) {
		regions, err := planInputs(params{toy: true}, 0)
		if err != nil {
			t.Fatal(err)
		}
		dep, err := core.Plan(regions[0].region, core.Options{MaxFailures: planMaxFailures})
		if err != nil {
			t.Fatal(err)
		}
		results := chaos.NewAuditor(dep.Plan).Run(regions[0].scenarios(), 1)
		if err := admissible(results); err != nil {
			t.Fatalf("true audit rejected: %v", err)
		}
		results[len(results)-1].Admissible = false
		if admissible(results) == nil {
			t.Fatal("an inadmissible scenario passed")
		}
	})
	t.Run("whatif", func(t *testing.T) {
		regions, err := planInputs(params{toy: true}, 0)
		if err != nil {
			t.Fatal(err)
		}
		dep, err := core.Plan(regions[0].region, core.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		sc := regions[0].scenarios()[1]
		want := chaos.NewAuditor(dep.Plan).Audit(sc)
		body, err := json.MarshalIndent(map[string]any{"scenario": sc, "result": want}, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := whatifMatches(body, want); err != nil {
			t.Fatalf("true body rejected: %v", err)
		}
		want.Admissible = !want.Admissible
		if whatifMatches(body, want) == nil {
			t.Fatal("a body differing from the direct audit passed")
		}
	})
	t.Run("status codes", func(t *testing.T) {
		if err := badResponses([]*phaseStats{{sent: 3}}); err != nil {
			t.Fatal(err)
		}
		if badResponses([]*phaseStats{{sent: 3, bad: 1}}) == nil {
			t.Fatal("a non-200 response passed")
		}
	})
}
