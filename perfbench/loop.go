package main

import (
	"fmt"
	"time"

	"iris/internal/core"
	"iris/internal/history"
	"iris/internal/robust"
	"iris/internal/telemetry"
	"iris/internal/trace"
	"iris/internal/traffic"
)

// Region sizes of the control-loop workloads.
const (
	loopDCs = 10
	toyDCs  = 5
	// convergeSteps and robustSteps are the shifts of one episode.
	convergeSteps = 192
	robustSteps   = 32
)

// phaseNames are Controller.Reconfigure's drained phases, in order.
var phaseNames = []string{"drain", "switch", "amps", "retune", "fill", "undrain"}

// loopCounters caches the daemon counters read around every step.
type loopCounters struct {
	reconfigs, ops, inEnv, escapes, incremental, fallback *telemetry.Counter
	allocFail, reconfigFail, auditFail, flowRuns, flows   *telemetry.Counter
}

func newLoopCounters(r *region) loopCounters {
	c := func(name string) *telemetry.Counter {
		if k := r.reg.LookupCounter(name); k != nil {
			return k
		}
		return &telemetry.Counter{} // series not registered in this mode
	}
	return loopCounters{
		reconfigs: c("iris_reconfig_total"), ops: c("iris_reconfig_ops_total"),
		inEnv: c("iris_robust_in_envelope_total"), escapes: c("iris_robust_escapes_total"),
		incremental: c("iris_alloc_incremental_total"), fallback: c("iris_alloc_fallback_total"),
		allocFail: c("iris_allocation_failures_total"), reconfigFail: c("iris_reconfig_failures_total"),
		auditFail: c("iris_audit_failures_total"),
		flowRuns:  c("iris_flowsim_runs_total"), flows: c("iris_flowsim_flows_simulated_total"),
	}
}

// counterSnap is one reading of the loop counters.
type counterSnap map[string]float64

func (c loopCounters) snap() counterSnap {
	return counterSnap{
		"reconfigs": c.reconfigs.Value(), "ops": c.ops.Value(),
		"inEnv": c.inEnv.Value(), "escapes": c.escapes.Value(),
		"incremental": c.incremental.Value(), "fallback": c.fallback.Value(),
		"failures": c.allocFail.Value() + c.reconfigFail.Value() + c.auditFail.Value(),
		"flowRuns": c.flowRuns.Value(), "flows": c.flows.Value(),
	}
}

func (a counterSnap) sub(b counterSnap) counterSnap {
	out := counterSnap{}
	for k, v := range a {
		out[k] = v - b[k]
	}
	return out
}

// loopTrace gathers the traced episodes' per-layer figures, and the
// benchmark's replica of the allocator books it uses to time the
// allocation step the daemon runs inside Step.
type loopTrace struct {
	steps, commits                 int
	stepTime, stepSelf, feed       acc
	compile, reconfig, audit, flow acc
	phases                         map[string]*acc
	rpcSpanNS                      int64
	dev                            deviceCounts
	commitAllocs, commitRPCs       float64
	alloc, appendRec               acc
	allocObjs                      float64
	solve, verify, contains        acc
	iterations                     float64
	lastSeq                        uint64
	shadow                         *core.AllocState
	shadowLast                     *traffic.Matrix
	window                         *traffic.Window
	lake                           *history.Lake
	replayErr                      error
}

// episodeSeed derives episode ep's seed from the run's seed.
func episodeSeed(seed int64, ep int) int64 { return seed*1000 + int64(ep) }

// runLoop drives Daemon.Step back to back from one caller: the converge
// and robust workloads. A run is a sequence of episodes, each a fresh
// region (its bring-up is the set-up time) followed by a fixed number of
// shifts from its own seeded traffic, until the run's time is up. Every
// episode does the same kind of work whatever the machine's speed, and a
// run averages over several traffic draws.
func runLoop(p params, o *outcome, spec regionSpec, steps int) error {
	spec.tapDevices = p.trace
	lt := &loopTrace{phases: map[string]*acc{}}
	for _, ph := range phaseNames {
		lt.phases[ph] = &acc{}
	}
	var (
		setups     []float64
		commitLat  []float64 // untraced steps that committed
		plainTime  time.Duration
		plainSteps int
		total      counterSnap
	)
	hw := watchHeap()
	defer hw.stop()
	rt0 := readRuntime()
	deadline := time.Now().Add(p.dur)
	for ep := 0; ep == 0 || time.Now().Before(deadline); ep++ {
		spec.seed = episodeSeed(p.seed, ep)
		t0 := time.Now()
		r, err := buildRegion(spec)
		if err != nil {
			return err
		}
		r.d.Step()
		setups = append(setups, time.Since(t0).Seconds())
		if _, ok := r.d.CommittedAlloc(); !ok {
			r.close()
			return fmt.Errorf("episode seed %d: first step committed nothing: %s", spec.seed, r.d.Status().LastError)
		}
		// A traced run alternates untraced and traced episodes.
		traced := p.trace && ep%2 == 1
		if traced {
			if err := lt.start(r, spec); err != nil {
				r.close()
				return err
			}
			r.feed.timing = true
			r.devs.on.Store(true)
		}
		cnt := newLoopCounters(r)
		c0 := cnt.snap()
		for i := 0; i < steps; i++ {
			stepNo := i + 2 // the set-up step was the first
			var env *robust.Envelope
			if traced && spec.robust {
				env = r.d.RobustEnvelope()
			}
			before := cnt.reconfigs.Value()
			var dev0 deviceCounts
			var rt runtimeSample
			if traced {
				dev0 = r.devs.snapshot()
				rt = readRuntime()
			}
			t0 := time.Now()
			r.d.Step()
			dt := time.Since(t0)
			committed := cnt.reconfigs.Value() > before
			if traced {
				lt.track(r, spec, stepNo, dt, committed, env, r.devs.snapshot().sub(dev0), allocsSince(rt))
			} else {
				plainTime += dt
				plainSteps++
				if committed {
					commitLat = append(commitLat, ms(dt))
				}
			}
		}
		d := cnt.snap().sub(c0)
		if ep == 0 {
			// Episode 0's counts repeat exactly for the run's seed.
			o.exact["control.ops"] = cnt.ops.Value()
			o.exact["control.reconfigs"] = cnt.reconfigs.Value()
			if spec.robust {
				o.exact["robust.in_envelope"] = cnt.inEnv.Value()
			}
		}
		if total == nil {
			total = d
		} else {
			for k, v := range d {
				total[k] += v
			}
		}
		o.attempted += int64(steps)
		o.failed += int64(d["failures"])
		checkLoop(o, r, spec)
		r.close()
	}
	hw.report(o)
	rt1 := readRuntime()
	o.e2e["setup_s"] = quantile(setups, 0.5)

	shifts := ratio(float64(plainSteps), plainTime.Seconds())
	o.e2e["ops_per_s"] = shifts
	o.e2e["latency_p50_ms"] = quantile(commitLat, 0.5)
	tailQ, tailName := 0.99, "reconfig_p99_ms"
	if spec.robust {
		tailQ, tailName = 0.9, "reconfig_p90_ms"
	}
	o.e2e["latency_tail_ms"] = quantile(commitLat, tailQ)
	o.note("shifts_per_s", shifts, "1/s")
	o.note("reconfig_p50_ms", o.e2e["latency_p50_ms"], "ms")
	o.note(tailName, o.e2e["latency_tail_ms"], "ms")
	o.note("reconfig_samples", float64(len(commitLat)), "count")
	o.note("episodes", float64(len(setups)), "count")

	d := total
	o.layer["control.ops_per_reconfig"] = ratio(d["ops"], d["reconfigs"])
	o.layer["core.incremental_ratio"] = ratio(d["incremental"], d["incremental"]+d["fallback"])
	o.layer["robust.in_envelope_ratio"] = ratio(d["inEnv"], d["inEnv"]+d["escapes"])
	o.layer["flowsim.flows_per_observe"] = ratio(d["flows"], d["flowRuns"])
	o.layer["gc.cpu_fraction"] = gcFraction(rt0, rt1)
	if p.trace {
		lt.report(o, shifts, commitLat)
	}
	return nil
}

// start points the replica books at a fresh episode's region.
func (lt *loopTrace) start(r *region, spec regionSpec) error {
	if lt.lake == nil {
		var err error
		if lt.lake, err = history.New(history.Config{Capacity: 512}); err != nil {
			return err
		}
	}
	if spec.robust {
		lt.window = traffic.NewWindow(r.pol.Window)
		lt.window.Push(r.feed.last)
	} else {
		var err error
		if lt.shadow, err = r.rig.Dep.AllocateState(r.feed.last); err != nil {
			return err
		}
	}
	lt.shadowLast = r.feed.last
	lt.lastSeq = lastSeq(r.tracer)
	return nil
}

// lastSeq is the newest event sequence number in the flight recorder.
func lastSeq(t *trace.Tracer) uint64 {
	evs := t.Events(trace.Filter{})
	if len(evs) == 0 {
		return 0
	}
	return evs[len(evs)-1].Seq
}

// track attributes one step of a traced episode to layers: the daemon's
// own span tree for the reconfiguration (compile, phases, audit, flow
// impact), the taps for feed and device time, and timed replays of the
// allocation (or envelope solve) and history append the daemon performed
// inside Step, which no span of the program covers.
func (lt *loopTrace) track(r *region, spec regionSpec, stepNo int, dt time.Duration,
	committed bool, env *robust.Envelope, dev deviceCounts, allocs uint64) {
	m := r.feed.last
	lt.steps++
	lt.stepTime.add(dt)
	lt.feed.total += r.feed.next.total
	lt.feed.n += r.feed.next.n
	self := dt - r.feed.next.total
	r.feed.next = acc{}
	lt.dev.ops += dev.ops
	lt.dev.stateOps += dev.stateOps
	lt.dev.selfNS += dev.selfNS

	// The daemon's span tree for this step.
	evs := r.tracer.Events(trace.Filter{})
	var fresh []trace.Event
	for _, ev := range evs {
		if ev.Seq > lt.lastSeq {
			fresh = append(fresh, ev)
		}
	}
	if len(evs) > 0 {
		lt.lastSeq = evs[len(evs)-1].Seq
	}
	var root *trace.Event
	for i := range fresh {
		if fresh[i].Name == "reconfig" && fresh[i].ParentID == 0 {
			root = &fresh[i]
		}
	}
	if root != nil {
		self -= root.Duration
		lt.spans(root, fresh)
		lt.commitAllocs += float64(allocs)
		lt.commitRPCs += float64(dev.ops)
	}

	if spec.robust {
		if env != nil {
			t0 := time.Now()
			env.Contains(m)
			c := time.Since(t0)
			lt.contains.add(c)
			self -= c
		}
		lt.window.Push(m)
		if env == nil || !env.Contains(m) {
			self -= lt.replaySolve(r, stepNo, m, committed)
		}
	} else {
		a0 := readRuntime()
		t0 := time.Now()
		_, _, err := r.rig.Dep.AllocateDelta(lt.shadow, traffic.DiffMatrices(lt.shadowLast, m))
		a := time.Since(t0)
		objs := allocsSince(a0)
		if err != nil {
			lt.replayErr = fmt.Errorf("step %d: replayed allocation: %w", stepNo, err)
		} else {
			lt.shadowLast = m
			lt.alloc.add(a)
			lt.allocObjs += float64(objs)
			self -= a
		}
		if got, ok := r.d.CommittedAlloc(); committed && ok && !got.Equal(lt.shadow.Allocation()) {
			lt.replayErr = fmt.Errorf("step %d: replayed allocation differs from the committed one", stepNo)
		}
	}
	if root != nil {
		if rec, ok := r.lake.Get(root.TraceID); ok {
			t0 := time.Now()
			lt.lake.Append(rec)
			a := time.Since(t0)
			lt.appendRec.add(a)
			self -= a
		}
	}
	lt.stepSelf.add(self)
}

// spans files one reconfiguration's span tree under its layers.
func (lt *loopTrace) spans(root *trace.Event, evs []trace.Event) {
	kind := map[uint64]string{root.SpanID: "root"}
	for _, ev := range evs {
		if ev.ParentID == root.SpanID {
			kind[ev.SpanID] = ev.Name
		}
	}
	reconfig := time.Duration(0)
	for _, ev := range evs {
		switch parent := kind[ev.ParentID]; {
		case parent == "root":
			switch ev.Name {
			case "compile":
				lt.compile.add(ev.Duration)
			case "audit":
				lt.audit.add(ev.Duration)
			case "flowsim-impact":
				lt.flow.add(ev.Duration)
			default:
				if a, ok := lt.phases[ev.Name]; ok {
					a.add(ev.Duration)
					reconfig += ev.Duration
				}
			}
		case parent != "":
			// A per-device RPC span under a phase or the audit.
			lt.rpcSpanNS += int64(ev.Duration)
		}
	}
	lt.reconfig.add(reconfig)
	lt.commits++
}

// replaySolve re-runs the envelope solve the daemon ran for an escaping
// shift, over the same window and forecast, timing it and robust.Verify.
// It returns the solve time.
func (lt *loopTrace) replaySolve(r *region, stepNo int, m *traffic.Matrix, committed bool) time.Duration {
	ms := lt.window.Matrices()
	if r.pol.Forecast > 0 {
		ms = append(ms, traffic.Forecast(r.pol.Seed+int64(stepNo), m, r.pol.CP, r.pol.Forecast)...)
	}
	t0 := time.Now()
	sol, err := robust.Solve(r.rig.Dep, ms, robust.Config{Headroom: r.pol.Headroom, Shrink: r.pol.Shrink, Budget: r.pol.Budget})
	s := time.Since(t0)
	if err != nil {
		lt.replayErr = fmt.Errorf("step %d: replayed envelope solve: %w", stepNo, err)
		return 0
	}
	lt.solve.add(s)
	lt.iterations += float64(sol.Iterations)
	t0 = time.Now()
	robust.Verify(r.rig.Dep, sol.Alloc, ms)
	lt.verify.add(time.Since(t0))
	if got, ok := r.d.CommittedAlloc(); committed && ok && !got.Equal(sol.Alloc) {
		lt.replayErr = fmt.Errorf("step %d: replayed envelope solve differs from the committed allocation", stepNo)
	}
	return s
}

func (lt *loopTrace) report(o *outcome, plainShifts float64, plainCommitLat []float64) {
	o.layer["traffic.next_us"] = lt.feed.meanUS()
	o.layer["core.alloc_us"] = lt.alloc.meanUS()
	o.layer["core.allocs_per_alloc"] = ratio(lt.allocObjs, float64(lt.alloc.n))
	o.layer["fabric.compile_ms"] = lt.compile.meanMS()
	o.layer["control.reconfig_ms"] = lt.reconfig.meanMS()
	for _, ph := range phaseNames {
		o.layer["control.phase_ms."+ph] = ratio(ms(lt.phases[ph].total), float64(lt.commits))
	}
	rpc := ratio(float64(lt.rpcSpanNS)/1e3, float64(lt.dev.ops))
	handle := ratio(float64(lt.dev.selfNS)/1e3, float64(lt.dev.ops))
	o.layer["control.rpc_us"] = rpc
	o.layer["device.handle_us"] = handle
	o.layer["control.transport_us"] = rpc - handle
	o.layer["control.allocs_per_rpc"] = ratio(lt.commitAllocs, lt.commitRPCs)
	o.layer["control.audit_ms"] = lt.audit.meanMS()
	o.layer["control.audit_rpcs"] = ratio(float64(lt.dev.stateOps), float64(lt.audit.n))
	o.layer["history.append_us"] = lt.appendRec.meanUS()
	o.layer["daemon.step_self_ms"] = lt.stepSelf.meanMS()
	o.layer["flowsim.observe_ms"] = lt.flow.meanMS()
	o.layer["robust.solve_ms"] = lt.solve.meanMS()
	o.layer["robust.iterations"] = ratio(lt.iterations, float64(lt.solve.n))
	o.layer["robust.verify_ms"] = lt.verify.meanMS()
	o.layer["robust.contains_us"] = lt.contains.meanUS()
	tracedShifts := ratio(float64(lt.steps), lt.stepTime.total.Seconds())
	o.layer["trace.overhead_pct"] = 100 * ratio(plainShifts-tracedShifts, plainShifts)
	o.note("traced_shifts_per_s", tracedShifts, "1/s")
	o.note("untraced_reconfig_p50_ms", quantile(plainCommitLat, 0.5), "ms")
	o.note("untraced_reconfig_mean_ms", mean(plainCommitLat), "ms")
	o.note("traced_step_mean_ms", lt.stepTime.meanMS(), "ms")
	// The named layers' share of traced Step time; the rest is
	// daemon.step_self_ms.
	o.note("layers_attributed_pct", 100*(1-ratio(float64(lt.stepSelf.total), float64(lt.stepTime.total))), "%")
	o.check("layer replays match the daemon", lt.replayErr)
}

// checkLoop runs the closing correctness checks of an episode.
func checkLoop(o *outcome, r *region, spec regionSpec) {
	got, ok := r.d.CommittedAlloc()
	if !ok {
		o.check("committed allocation", fmt.Errorf("nothing committed"))
		return
	}
	final := r.feed.last
	want := final
	if spec.robust {
		env := r.d.RobustEnvelope()
		want = envelopeMatrix(final.DCs, env)
		var err error
		if !env.Clamped && !env.Contains(final) {
			err = fmt.Errorf("committed envelope does not contain the final matrix")
		}
		o.check("envelope covers final matrix", err)
	}
	st, err := r.rig.Dep.AllocateState(want)
	if err == nil {
		err = allocEqual(got, st.Snapshot())
	}
	o.check("committed allocation equals from-scratch solve", err)
	err = r.d.Audit()
	if err == nil && !r.d.Status().LastAuditOK {
		err = fmt.Errorf("daemon's closing audit failed")
	}
	o.check("device audit", err)
}

// envelopeMatrix is the demand matrix a robust envelope was allocated
// for.
func envelopeMatrix(dcs []int, env *robust.Envelope) *traffic.Matrix {
	m := traffic.NewMatrix(dcs)
	for p, dm := range env.Demand {
		m.Set(p, dm)
	}
	return m
}

// allocEqual reports how two allocations differ, or nil.
func allocEqual(got, want core.Allocation) error {
	if got.Equal(want) {
		return nil
	}
	for p, f := range want.Fibers {
		if got.Fibers[p] != f {
			return fmt.Errorf("pair %v: %d fibers committed, %d expected", p, got.Fibers[p], f)
		}
	}
	for p, f := range want.Residual {
		if got.Residual[p] != f {
			return fmt.Errorf("pair %v: %d residual committed, %d expected", p, got.Residual[p], f)
		}
	}
	return fmt.Errorf("allocations differ in pairs absent from the expected one")
}
