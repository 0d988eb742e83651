// Command perfbench is the region control-plane benchmark. It runs one
// named workload in-process against the real packages, measures for the
// given number of seconds, checks that the outputs are correct, and prints
// one JSON result line last. With --trace 0 the result carries the
// end-to-end metrics; with --trace 1 it carries the per-layer metrics,
// measured from outside every package, and the tracing overhead. See
// README.md in this directory.
package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

//go:embed spec.json
var specJSON []byte

// spec is the benchmark's description of itself: its workloads and, for
// every metric, the unit and direction, what it means on each workload
// and which end-to-end metric a layer metric should move.
type spec struct {
	Environment map[string]any `json:"environment"`
	Workloads   []struct {
		Name  string `json:"name"`
		Loop  string `json:"loop"`
		Drive string `json:"drive"`
		Sizes string `json:"sizes"`
		Seed  string `json:"seed"`
		Why   string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string            `json:"name"`
	Unit   string            `json:"unit"`
	Better string            `json:"better"`
	Means  map[string]string `json:"means,omitempty"`
	Moves  []string          `json:"moves,omitempty"`
}

func loadSpec() (spec, error) {
	var s spec
	err := json.Unmarshal(specJSON, &s)
	return s, err
}

// params are one run's settings.
type params struct {
	seed  int64
	dur   time.Duration
	trace bool
	toy   bool // the self-tests' small regions
}

// outcome is what a workload reports: operation and check tallies, the
// metrics by name, counts that must repeat exactly for a seed, and notes
// printed under the names the workload's own domain uses.
type outcome struct {
	attempted, failed int64
	e2e, layer, exact map[string]float64
	notes             []note
	errs              []string
}

type note struct {
	name, unit string
	value      float64
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layer: map[string]float64{}, exact: map[string]float64{}}
}

func (o *outcome) note(name string, v float64, unit string) {
	o.notes = append(o.notes, note{name, unit, v})
}

// check records one correctness check: it counts as attempted, and as
// failed when err is non-nil.
func (o *outcome) check(name string, err error) {
	o.attempted++
	if err != nil {
		o.failed++
		o.errs = append(o.errs, name+": "+err.Error())
	}
}

// mapSeed pins the region the control-loop and query workloads run on, so
// runs with different seeds compare like with like: the seed varies the
// traffic, not the topology.
const mapSeed = 1

var workloads = map[string]func(params, *outcome) error{
	"converge": func(p params, o *outcome) error {
		return runLoop(p, o, regionSpec{toy: p.toy, mapSeed: mapSeed, seed: p.seed, dcs: loopDCs}, convergeSteps)
	},
	"robust": func(p params, o *outcome) error {
		return runLoop(p, o, regionSpec{toy: p.toy, mapSeed: mapSeed, seed: p.seed, dcs: loopDCs, shiftBound: 0.1, robust: true, flowLoad: true}, robustSteps)
	},
	"query":      runQuery,
	"plan-audit": runPlanAudit,
}

// metric is one value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: converge, robust, query or plan-audit")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 10, "measured duration")
	traceOn := fs.Int("trace", 0, "1: report per-layer metrics from a traced run")
	state := fs.String("state", filepath.Join(".bench_build", "exact"), "directory holding each seed's exact counts")
	toy := fs.Bool("toy", false, "use small regions (self-tests)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp, err := loadSpec()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench: spec:", err)
		return 2
	}
	wl, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traceOn != 0 && *traceOn != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (converge, robust, query, plan-audit), --seconds > 0, --trace 0|1\n")
		return 2
	}
	p := params{seed: *seed, dur: time.Duration(*seconds * float64(time.Second)), trace: *traceOn == 1, toy: *toy}
	o := newOutcome()
	if err := wl(p, o); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	if err := checkExact(*state, *name, p, o.exact); err != nil {
		o.check("exact counts repeat for the seed", err)
	}

	list := sp.EndToEnd
	values := o.e2e
	if p.trace {
		list, values = sp.PerLayer, o.layer
	}
	res := result{Correct: len(o.errs) == 0, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metric{}}
	for _, m := range list {
		v, ok := values[m.Name]
		if !ok && !p.trace {
			fmt.Fprintf(stderr, "perfbench: %s did not measure %s\n", *name, m.Name)
			return 1
		}
		// A layer the workload does not exercise reads 0.
		res.Metrics[m.Name] = metric{v, m.Unit}
	}
	printReport(stdout, *name, p, o, list, values)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		for _, e := range o.errs {
			fmt.Fprintln(stderr, "perfbench: check failed:", e)
		}
		return 1
	}
	return 0
}

// printReport writes the human-readable table: the workload's own metric
// names first, then every reported metric with its unit.
func printReport(w io.Writer, name string, p params, o *outcome, list []specMetric, values map[string]float64) {
	mode := "untraced"
	if p.trace {
		mode = "traced"
	}
	fmt.Fprintf(w, "# %s seed=%d seconds=%g %s\n", name, p.seed, p.dur.Seconds(), mode)
	for _, n := range o.notes {
		fmt.Fprintf(w, "%-34s %14.4f %s\n", n.name, n.value, n.unit)
	}
	fmt.Fprintf(w, "%-34s %14.6f ratio (%d of %d)\n", "failed_ratio", ratio(float64(o.failed), float64(o.attempted)), o.failed, o.attempted)
	for _, m := range list {
		fmt.Fprintf(w, "%-34s %14.4f %s\n", m.Name, values[m.Name], m.Unit)
	}
	keys := make([]string, 0, len(o.exact))
	for k := range o.exact {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "exact %-28s %14.0f count\n", k, o.exact[k])
	}
}

// checkExact compares the run's exact counts with those an earlier run of
// the same workload, seed and mode stored, and stores them on the first
// run. Counts of a deterministic program repeat exactly for one seed, so
// any drift is a benchmark error, not noise.
func checkExact(dir, name string, p params, counts map[string]float64) error {
	if len(counts) == 0 {
		return nil
	}
	mode := 0
	if p.trace {
		mode = 1
	}
	if p.toy {
		name += "-toy"
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", name, p.seed, mode))
	if raw, err := os.ReadFile(path); err == nil {
		var prev map[string]float64
		if err := json.Unmarshal(raw, &prev); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		return compareExact(prev, counts)
	} else if !errors.Is(err, os.ErrNotExist) {
		return err
	}
	raw, err := json.Marshal(counts)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

func compareExact(prev, cur map[string]float64) error {
	for k, v := range cur {
		if pv, ok := prev[k]; !ok || pv != v {
			return fmt.Errorf("%s drifted: %v before, %v now", k, pv, v)
		}
	}
	for k := range prev {
		if _, ok := cur[k]; !ok {
			return fmt.Errorf("%s missing from this run", k)
		}
	}
	return nil
}
