package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"iris/internal/chaos"
)

// The query workload's open loop: one generator with Poisson arrivals at
// a fixed rate, served over loopback HTTP by queryConns client
// connections (one goroutine each).
const (
	queryConns = 2
	// queryNominalQPS is the rate the latency figures are taken at.
	queryNominalQPS = 300
	// queryLimitMS is the p99 latency limit that defines the highest
	// sustainable rate.
	queryLimitMS = 50
	// verifyEvery samples one whatif response in this many for an
	// independent re-audit.
	verifyEvery = 20
	// queryBringUps is how many times set-up runs; setup_s is the median.
	queryBringUps = 3
)

// queryLadder is the sequence of offered rates, as multiples of the
// nominal rate, searched for the highest rate meeting the limit. The climb
// stops after two rates in a row where more than queryStopMiss of
// requests miss the limit.
var queryLadder = []float64{1.5, 2, 2.5, 3, 3.5, 4, 4.5, 5, 5.5, 6, 7}

const queryStopMiss = 0.1

// queryMix is the operator mix: request kinds and their counts in every
// deck of 100 requests. Each deck is shuffled by the seeded generator, so
// the mix is exact over any run while the order is random.
var queryMix = []struct {
	kind  string
	count int
}{
	{"whatif", 60}, {"paths", 25}, {"status", 13}, {"critical", 2},
}

type queryReq struct {
	kind, path, scenario string
	due                  time.Time
}

// queryGen draws the seeded request mix for one region.
type queryGen struct {
	rng  *rand.Rand
	cuts []chaos.Scenario // every 2-duct cut of the map
	dcs  []int
	deck []string
}

func (g *queryGen) next() queryReq {
	if len(g.deck) == 0 {
		for _, k := range queryMix {
			for i := 0; i < k.count; i++ {
				g.deck = append(g.deck, k.kind)
			}
		}
		g.rng.Shuffle(len(g.deck), func(i, j int) { g.deck[i], g.deck[j] = g.deck[j], g.deck[i] })
	}
	kind := g.deck[len(g.deck)-1]
	g.deck = g.deck[:len(g.deck)-1]
	switch kind {
	case "whatif":
		sc := g.cuts[g.rng.Intn(len(g.cuts))]
		spec := fmt.Sprintf("cut:%d,%d", sc.Ducts[0], sc.Ducts[1])
		return queryReq{kind: kind, path: "/api/whatif?scenario=" + spec, scenario: spec}
	case "paths":
		a := g.rng.Intn(len(g.dcs))
		b := (a + 1 + g.rng.Intn(len(g.dcs)-1)) % len(g.dcs)
		return queryReq{kind: kind, path: fmt.Sprintf("/api/paths?from=%d&to=%d", g.dcs[a], g.dcs[b])}
	case "status":
		return queryReq{kind: kind, path: "/status"}
	default:
		return queryReq{kind: kind, path: "/api/critical?k=2"}
	}
}

// handlerTap times the daemon's HTTP handler in-process, per request kind.
type handlerTap struct {
	h  http.Handler
	on atomic.Bool
	mu sync.Mutex
	by map[string]*acc
}

func (t *handlerTap) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !t.on.Load() {
		t.h.ServeHTTP(w, r)
		return
	}
	t0 := time.Now()
	t.h.ServeHTTP(w, r)
	d := time.Since(t0)
	t.mu.Lock()
	a := t.by[r.URL.Path]
	if a == nil {
		a = &acc{}
		t.by[r.URL.Path] = a
	}
	a.add(d)
	t.mu.Unlock()
}

// queryServer is a committed, idle region served over loopback HTTP.
type queryServer struct {
	r    *region
	srv  *http.Server
	url  string
	tap  *handlerTap
	gen  *queryGen
	done chan struct{}
}

func startQueryServer(p params, reps int) (*queryServer, float64, error) {
	var times []float64
	var qs *queryServer
	for i := 0; i < reps; i++ {
		if qs != nil {
			qs.close()
		}
		t0 := time.Now()
		var err error
		if qs, err = newQueryServer(p); err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return qs, quantile(times, 0.5), nil
}

// newQueryServer builds the region to its first committed allocation,
// serves Daemon.Handler on a loopback port, and sends one request of each
// kind so lazily built query state exists before measuring.
func newQueryServer(p params) (*queryServer, error) {
	dcs := loopDCs
	if p.toy {
		dcs = toyDCs
	}
	r, err := buildRegion(regionSpec{toy: p.toy, mapSeed: mapSeed, seed: p.seed, dcs: dcs})
	if err != nil {
		return nil, err
	}
	r.d.Step()
	if _, ok := r.d.CommittedAlloc(); !ok {
		r.close()
		return nil, fmt.Errorf("region seed %d: first step committed nothing", p.seed)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		r.close()
		return nil, err
	}
	m := r.rig.Dep.Region.Map
	var cuts []chaos.Scenario
	for _, sc := range chaos.EnumerateCuts(m, 2) {
		if len(sc.Ducts) == 2 {
			cuts = append(cuts, sc)
		}
	}
	qs := &queryServer{
		r:    r,
		tap:  &handlerTap{h: r.d.Handler(), by: map[string]*acc{}},
		url:  "http://" + l.Addr().String(),
		gen:  &queryGen{rng: rand.New(rand.NewSource(p.seed)), cuts: cuts, dcs: m.DCs()},
		done: make(chan struct{}),
	}
	qs.srv = &http.Server{Handler: qs.tap, ReadHeaderTimeout: 10 * time.Second}
	go func() {
		defer close(qs.done)
		_ = qs.srv.Serve(l)
	}()
	c := newClient()
	defer c.CloseIdleConnections()
	warm := &queryGen{rng: rand.New(rand.NewSource(p.seed)), cuts: cuts, dcs: m.DCs()}
	for _, k := range queryMix {
		req := warm.next()
		for req.kind != k.kind {
			req = warm.next()
		}
		if code, _, err := get(c, qs.url+req.path); err != nil || code != http.StatusOK {
			qs.close()
			return nil, fmt.Errorf("warm-up %s: status %d: %v", req.path, code, err)
		}
	}
	return qs, nil
}

func (qs *queryServer) close() {
	_ = qs.srv.Close()
	<-qs.done
	qs.r.close()
}

func newClient() *http.Client {
	return &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}}
}

func get(c *http.Client, url string) (int, []byte, error) {
	resp, err := c.Get(url)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// phaseStats is one open-loop phase's outcome.
type phaseStats struct {
	rate       float64
	lat        []float64 // ms, from due time to response
	sent, bad  int
	lateMS     acc // generator lateness
	clientTime acc // send to response, per request
	backlog    int // requests due but not started when the schedule ended
	elapsed    time.Duration
	samples    []sample
}

type sample struct{ scenario, body string }

// openLoop offers requests at rate per second for dur, from one generator
// goroutine, over queryConns connections, and waits for every request to
// finish.
func (qs *queryServer) openLoop(rate float64, dur time.Duration, keep bool) *phaseStats {
	st := &phaseStats{rate: rate}
	// Room for twice the expected arrivals: the generator must never
	// block on a full queue, or its schedule would slow with the server.
	queue := make(chan queryReq, 2*int(rate*dur.Seconds())+64)
	var mu sync.Mutex
	var started atomic.Int64
	whatifs := 0
	var wg sync.WaitGroup
	for i := 0; i < queryConns; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newClient()
			defer c.CloseIdleConnections()
			for req := range queue {
				started.Add(1)
				t0 := time.Now()
				code, body, err := get(c, qs.url+req.path)
				done := time.Now()
				mu.Lock()
				st.lat = append(st.lat, ms(done.Sub(req.due)))
				st.clientTime.add(done.Sub(t0))
				if err != nil || code != http.StatusOK {
					st.bad++
				} else if keep && req.kind == "whatif" {
					if whatifs++; whatifs%verifyEvery == 0 {
						st.samples = append(st.samples, sample{req.scenario, string(body)})
					}
				}
				mu.Unlock()
			}
		}()
	}
	start := time.Now()
	end := start.Add(dur)
	due := start
	for due.Before(end) {
		req := qs.gen.next()
		req.due = due
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		st.lateMS.add(time.Since(due))
		queue <- req
		st.sent++
		due = due.Add(time.Duration(qs.gen.rng.ExpFloat64() / rate * float64(time.Second)))
	}
	st.backlog = st.sent - int(started.Load())
	close(queue)
	wg.Wait()
	return st
}

// closedLoop sends the mix back to back from queryConns callers, each
// waiting for its reply, for dur: the region's query capacity.
func (qs *queryServer) closedLoop(seed int64, dur time.Duration) *phaseStats {
	st := &phaseStats{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	end := start.Add(dur)
	for i := 0; i < queryConns; i++ {
		gen := &queryGen{rng: rand.New(rand.NewSource(seed + 101 + int64(i))), cuts: qs.gen.cuts, dcs: qs.gen.dcs}
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newClient()
			defer c.CloseIdleConnections()
			for time.Now().Before(end) {
				req := gen.next()
				code, _, err := get(c, qs.url+req.path)
				mu.Lock()
				st.sent++
				if err != nil || code != http.StatusOK {
					st.bad++
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	st.elapsed = time.Since(start)
	return st
}

// runQuery is the query workload: operator reads of a committed, idle
// region over loopback HTTP. Latency is taken in an open loop at the
// nominal rate; capacity in a closed loop; the highest rate meeting the
// p99 limit on an open-loop ladder.
func runQuery(p params, o *outcome) error {
	qs, setupS, err := startQueryServer(p, queryBringUps)
	if err != nil {
		return err
	}
	defer qs.close()
	o.e2e["setup_s"] = setupS
	auditor := chaos.NewAuditor(qs.r.rig.Dep.Plan)

	hw := watchHeap()
	defer hw.stop()
	rt0 := readRuntime()
	// About a third of the time at the nominal rate, a quarter closed
	// loop, the rest climbing the ladder.
	nominalDur := p.dur * 7 / 20
	closedDur := p.dur / 4
	rungDur := p.dur / 30
	var nominal, nominalTraced *phaseStats
	if p.trace {
		// Interleave untraced and traced halves of the nominal phase so
		// the overhead compares like with like.
		nominal = qs.openLoop(queryNominalQPS, nominalDur/2, true)
		qs.tap.on.Store(true)
		nominalTraced = qs.openLoop(queryNominalQPS, nominalDur/2, false)
	} else {
		nominal = qs.openLoop(queryNominalQPS, nominalDur, true)
	}
	beforeClosed := qs.tap.sum()
	closed := qs.closedLoop(p.seed, closedDur)
	closedHandler := qs.tap.sum()
	closedHandler.total -= beforeClosed.total
	closedHandler.n -= beforeClosed.n
	maxQPS, rungs := qs.climb(rungDur)
	hw.report(o)
	rt1 := readRuntime()

	all := append([]*phaseStats{nominal, nominalTraced, closed}, rungs...)
	for _, st := range all {
		if st == nil {
			continue
		}
		o.attempted += int64(st.sent)
		o.failed += int64(st.bad)
	}
	closedQPS := ratio(float64(closed.sent), closed.elapsed.Seconds())
	o.e2e["ops_per_s"] = closedQPS
	o.e2e["latency_p50_ms"] = quantile(nominal.lat, 0.5)
	o.e2e["latency_tail_ms"] = quantile(nominal.lat, 0.99)
	o.note("query_p50_ms", o.e2e["latency_p50_ms"], "ms")
	o.note("query_p99_ms", o.e2e["latency_tail_ms"], "ms")
	o.note("query_closed_qps", closedQPS, "1/s")
	o.note("query_max_qps", maxQPS, "1/s")
	o.note("query_nominal_qps", queryNominalQPS, "1/s")
	o.note("query_limit_ms", queryLimitMS, "ms")
	o.note("query_samples", float64(len(nominal.lat)), "count")
	for _, st := range rungs {
		o.note(fmt.Sprintf("rung_%.0f_qps_p99_ms", st.rate), quantile(st.lat, 0.99), "ms")
	}

	// Sampled whatif bodies must match a direct audit of the scenario.
	m := qs.r.rig.Dep.Region.Map
	var auditT acc
	for _, s := range nominal.samples {
		sc, err := chaos.ParseScenario(m, s.scenario)
		if err != nil {
			o.check("whatif "+s.scenario, err)
			continue
		}
		t0 := time.Now()
		want := auditor.Audit(sc)
		auditT.add(time.Since(t0))
		o.check("whatif "+s.scenario, whatifMatches([]byte(s.body), want))
	}
	o.check("every response is 200", badResponses(all))

	if p.trace {
		qs.tap.on.Store(false)
		o.layer["chaos.audit_us"] = auditT.meanUS()
		o.layer["gc.cpu_fraction"] = gcFraction(rt0, rt1)
		tp := qs.tap
		o.layer["topoapi.whatif_us"] = tp.mean("/api/whatif").meanUS()
		o.layer["topoapi.paths_us"] = tp.mean("/api/paths").meanUS()
		o.layer["topoapi.critical_ms"] = tp.mean("/api/critical").meanMS()
		o.layer["daemon.status_us"] = tp.mean("/status").meanUS()
		// The closed loop does not time its requests client-side; leave
		// its handler time out too.
		handler := tp.sum()
		handler.total -= closedHandler.total
		handler.n -= closedHandler.n
		client := acc{}
		late := acc{}
		for _, st := range append([]*phaseStats{nominalTraced}, rungs...) {
			client.total += st.clientTime.total
			client.n += st.clientTime.n
			late.total += st.lateMS.total
			late.n += st.lateMS.n
		}
		o.layer["http.overhead_us"] = client.meanUS() - handler.meanUS()
		o.layer["query.gen_late_ms"] = late.meanMS()
		p50, tracedP50 := quantile(nominal.lat, 0.5), quantile(nominalTraced.lat, 0.5)
		o.layer["trace.overhead_pct"] = 100 * ratio(tracedP50-p50, p50)
		o.note("traced_query_p50_ms", tracedP50, "ms")
	}
	return nil
}

// sum is the handler time and request count over every path so far.
func (t *handlerTap) sum() acc {
	t.mu.Lock()
	defer t.mu.Unlock()
	var s acc
	for _, a := range t.by {
		s.total += a.total
		s.n += a.n
	}
	return s
}

func (t *handlerTap) mean(path string) *acc {
	t.mu.Lock()
	defer t.mu.Unlock()
	if a := t.by[path]; a != nil {
		return a
	}
	return &acc{}
}

// missRatio is the share of a phase's requests slower than the limit.
func (st *phaseStats) missRatio() float64 {
	miss := 0
	for _, l := range st.lat {
		if l > queryLimitMS {
			miss++
		}
	}
	return ratio(float64(miss+st.bad), float64(len(st.lat)))
}

// climb offers the ladder's rates in turn, each for rungDur, until two in
// a row miss the limit for more than queryStopMiss of their requests. A rate
// meets the p99 limit when at most 1% of its requests miss it (a backlog
// shows as misses, since latency runs from each request's due time). The
// miss ratio is averaged into a curve that never falls as the rate rises
// (pool-adjacent-violators, weighted by requests), so one burst of noise
// from outside the process does not decide the answer, and the highest
// rate meeting the limit is interpolated where that curve crosses 1%.
func (qs *queryServer) climb(rungDur time.Duration) (float64, []*phaseStats) {
	var rungs []*phaseStats
	over := 0
	for _, mult := range queryLadder {
		st := qs.openLoop(mult*queryNominalQPS, rungDur, false)
		rungs = append(rungs, st)
		if over++; st.missRatio() <= queryStopMiss {
			over = 0
		}
		if over == 2 {
			break
		}
	}
	rates := make([]float64, len(rungs))
	miss := make([]float64, len(rungs))
	weight := make([]float64, len(rungs))
	for i, st := range rungs {
		rates[i], miss[i], weight[i] = st.rate, st.missRatio(), float64(len(st.lat))
	}
	fit := monotone(miss, weight)
	const target = 0.01
	if fit[0] > target {
		return rates[0] * target / fit[0], rungs
	}
	for i := 1; i < len(fit); i++ {
		if fit[i] > target {
			return rates[i-1] + (rates[i]-rates[i-1])*(target-fit[i-1])/(fit[i]-fit[i-1]), rungs
		}
	}
	return rates[len(rates)-1], rungs // the ladder's top rate met the limit
}

// monotone is the weighted least-squares non-decreasing fit of ys
// (pool-adjacent-violators).
func monotone(ys, ws []float64) []float64 {
	type block struct {
		sum, w float64
		n      int
	}
	var bs []block
	for i := range ys {
		bs = append(bs, block{ys[i] * ws[i], ws[i], 1})
		for len(bs) > 1 {
			a, b := bs[len(bs)-2], bs[len(bs)-1]
			if a.sum/a.w <= b.sum/b.w {
				break
			}
			bs = append(bs[:len(bs)-2], block{a.sum + b.sum, a.w + b.w, a.n + b.n})
		}
	}
	out := make([]float64, 0, len(ys))
	for _, b := range bs {
		for j := 0; j < b.n; j++ {
			out = append(out, b.sum/b.w)
		}
	}
	return out
}

// whatifMatches compares a /api/whatif body's audit result with a direct
// audit of the same scenario.
func whatifMatches(body []byte, want chaos.Result) error {
	var got struct {
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(body, &got); err != nil {
		return err
	}
	wantJSON, err := json.Marshal(want)
	if err != nil {
		return err
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, got.Result); err != nil {
		return err
	}
	if !bytes.Equal(compact.Bytes(), wantJSON) {
		return fmt.Errorf("served %s, direct audit %s", truncate(compact.String()), truncate(string(wantJSON)))
	}
	return nil
}

func badResponses(phases []*phaseStats) error {
	bad := 0
	for _, st := range phases {
		if st != nil {
			bad += st.bad
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d responses were not 200", bad)
	}
	return nil
}

func truncate(s string) string {
	if len(s) > 160 {
		return s[:160] + "…"
	}
	return strings.TrimSpace(s)
}
