package main

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"iris/internal/control"
	"iris/internal/daemon"
	"iris/internal/fabric"
	"iris/internal/flowsim"
	"iris/internal/history"
	"iris/internal/telemetry"
	"iris/internal/trace"
	"iris/internal/traffic"
)

// regionSpec selects one region and the irisd mode it runs in. Every knob
// not named here takes irisd's default (daemon.DefaultRegionConfig),
// except emulated OSS settling, which is always 0: it is a sleep standing
// in for hardware that no code change can move.
type regionSpec struct {
	toy bool
	// mapSeed generates the fiber map and places its DCs; seed drives
	// everything that varies from run to run: traffic, forecasts, flows.
	mapSeed    int64
	seed       int64
	dcs        int
	shiftBound float64 // ≤ 0: pair swaps
	robust     bool    // irisd -robust
	flowLoad   bool    // irisd -flow-load
	tapDevices bool    // wrap every device to time its self time
}

// region is one assembled irisd region plus the benchmark's taps on it.
// The assembly mirrors daemon.BuildRegion (checked by the self-tests) so
// the taps can sit on the feed and the devices without touching the
// program.
type region struct {
	d      *daemon.Daemon
	rig    *fabric.Rig
	tracer *trace.Tracer
	lake   *history.Lake
	reg    *telemetry.Registry
	feed   *feedTap
	devs   *deviceTap // nil unless spec.tapDevices
	pol    *daemon.RobustPolicy
	cp     traffic.ChangeProcess
}

func buildRegion(s regionSpec) (*region, error) {
	def := daemon.DefaultRegionConfig()
	r := &region{tracer: trace.New(def.TraceEvents), reg: telemetry.NewRegistry()}
	up := fabric.BringUpConfig{
		Toy: s.toy, Seed: s.mapSeed, DCs: s.dcs,
		DCCapacity: def.DCCapacity, Lambda: def.Lambda,
		Dial:   control.DialOptions{RPCTimeout: def.RPCTimeout},
		Tracer: r.tracer,
	}
	if s.tapDevices {
		r.devs = &deviceTap{}
		up.WrapDevice = r.devs.wrap
	}
	rig, err := fabric.BringUp(up)
	if err != nil {
		return nil, err
	}
	r.rig = rig
	fail := func(err error) (*region, error) {
		rig.Close()
		return nil, err
	}

	caps := make(map[int]float64)
	for dc, c := range rig.Dep.Region.Capacity {
		caps[dc] = float64(c * rig.Dep.Region.Lambda)
	}
	r.cp = traffic.ChangeProcess{Bound: s.shiftBound, Caps: caps, Util: def.Util}
	base := traffic.HeavyTailed(rand.New(rand.NewSource(s.seed)), rig.Dep.Region.Map.DCs(), caps, def.Util)
	r.feed = &feedTap{src: traffic.Traced(traffic.NewEvolver(s.seed+1, base, r.cp), r.tracer)}

	if r.lake, err = history.New(history.Config{Capacity: def.HistoryRecords, Registry: r.reg}); err != nil {
		return fail(err)
	}
	var mon *flowsim.Monitor
	if s.flowLoad {
		dist, ok := traffic.WorkloadByName(def.FlowDist)
		if !ok {
			return fail(fmt.Errorf("unknown flow workload %q", def.FlowDist))
		}
		mon, err = flowsim.NewMonitor(flowsim.MonitorConfig{
			Seed: s.seed + 3, Dist: dist, Util: def.FlowUtil,
			GbpsPerWavelength: def.FlowGbps, WindowS: def.FlowWindow.Seconds(),
			Registry: r.reg,
		})
		if err != nil {
			return fail(err)
		}
	}
	if s.robust {
		r.pol = &daemon.RobustPolicy{
			Window: def.RobustWindow, Forecast: def.RobustForecast, CP: r.cp,
			Seed: s.seed + 4, Headroom: def.RobustHeadroom, Budget: def.RobustBudget,
		}
	}
	r.d, err = daemon.New(daemon.Config{
		Fab: rig.Fab, Controller: rig.Testbed.Controller, Feed: r.feed,
		Interval: def.Interval, MaxBatch: def.MaxBatch, ProbeInterval: def.ProbeInterval,
		FailureThreshold: def.FailureThreshold, BackoffBase: def.BackoffBase, BackoffMax: def.BackoffMax,
		Seed: s.seed, Registry: r.reg, Tracer: r.tracer,
		FlowMonitor: mon, History: r.lake, Robust: r.pol,
	})
	if err != nil {
		return fail(err)
	}
	return r, nil
}

func (r *region) close() { r.rig.Close() }

// feedTap sits between the daemon and its traffic source. It keeps the
// last matrix handed out (the correctness check re-solves it) and, when
// timing is on, the time spent producing matrices.
type feedTap struct {
	src    traffic.Source
	timing bool
	last   *traffic.Matrix
	next   acc
}

func (f *feedTap) Next() (*traffic.Matrix, bool) {
	if !f.timing {
		m, ok := f.src.Next()
		if ok {
			f.last = m
		}
		return m, ok
	}
	t0 := time.Now()
	m, ok := f.src.Next()
	f.next.add(time.Since(t0))
	if ok {
		f.last = m
	}
	return m, ok
}

// deviceTap wraps every emulated device (through BringUpConfig.WrapDevice)
// and, while on, counts each handled operation and its self time: the
// device-side half of an RPC. Audit reads are the "state" operation.
type deviceTap struct {
	on       atomic.Bool
	ops      atomic.Int64
	stateOps atomic.Int64
	selfNS   atomic.Int64
}

func (t *deviceTap) wrap(_ string, dev control.Device) control.Device {
	return &tappedDevice{Device: dev, tap: t}
}

type tappedDevice struct {
	control.Device
	tap *deviceTap
}

func (d *tappedDevice) Handle(op string, args map[string]any) (map[string]any, error) {
	if !d.tap.on.Load() {
		return d.Device.Handle(op, args)
	}
	t0 := time.Now()
	res, err := d.Device.Handle(op, args)
	d.tap.selfNS.Add(int64(time.Since(t0)))
	d.tap.ops.Add(1)
	if op == "state" {
		d.tap.stateOps.Add(1)
	}
	return res, err
}

// deviceCounts is a snapshot of a deviceTap's counters.
type deviceCounts struct{ ops, stateOps, selfNS int64 }

func (t *deviceTap) snapshot() deviceCounts {
	return deviceCounts{t.ops.Load(), t.stateOps.Load(), t.selfNS.Load()}
}

func (a deviceCounts) sub(b deviceCounts) deviceCounts {
	return deviceCounts{a.ops - b.ops, a.stateOps - b.stateOps, a.selfNS - b.selfNS}
}
