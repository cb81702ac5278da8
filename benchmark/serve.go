package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"oltpsim/internal/driver"
	"oltpsim/internal/metrics"
	"oltpsim/internal/olog"
	"oltpsim/internal/server"
	"oltpsim/internal/systems"
	"oltpsim/internal/workload"
)

// The serving workloads drive an in-process oltpd over TCP loopback with
// the load driver's own client: two connections, one per core of the
// two-core host the benchmark was tuned on, one outstanding request each in
// the closed loop.
const conns = 2

// warmSeconds of closed-loop traffic precede every measured phase, so a
// measured phase starts against warm simulated caches and a warm host.
const warmSeconds = 1

// setupReps is how many times a serving run repeats its set-up; setup_s is
// the median.
const setupReps = 9

func runServeMicro(o opts, rep *report) error { return runServe(o, rep, microSpec, 7000) }

func runServeTPCC(o opts, rep *report) error { return runServe(o, rep, tpccSpec, 700) }

// startServer builds, populates and starts a default oltpd (VoltDB, two
// shards) serving spec.
func startServer(spec workload.Spec) (*server.Server, error) {
	s, err := server.New(server.Config{System: systems.VoltDB, Spec: spec})
	if err != nil {
		return nil, err
	}
	if err := s.Start("127.0.0.1:0"); err != nil {
		s.Shutdown()
		return nil, err
	}
	return s, nil
}

// timedSetups starts a server for spec setupReps times, each after a
// collection so every set-up starts from the same heap, and returns the
// median set-up seconds and the last server; the earlier ones are stopped.
func timedSetups(o opts, spec workload.Spec) (float64, *server.Server, error) {
	root := o.tr.begin("setup", 0)
	defer o.tr.end(root)
	var secs []float64
	var last *server.Server
	for i := 0; i < setupReps; i++ {
		if last != nil {
			last.Shutdown()
		}
		runtime.GC()
		sp := o.tr.begin("setup.rep", root)
		t0 := time.Now()
		s, err := startServer(spec)
		secs = append(secs, time.Since(t0).Seconds())
		o.tr.end(sp)
		if err != nil {
			return 0, nil, err
		}
		last = s
	}
	return median(secs), last, nil
}

// scrape renders and parses the given collector groups of each server,
// summing every series across servers.
func scrape(srvs []*server.Server, groups []string) (map[string]float64, error) {
	out := make(map[string]float64)
	for _, s := range srvs {
		text, err := s.Registry().RenderGroups(groups)
		if err != nil {
			return nil, err
		}
		m, err := metrics.Parse(text)
		if err != nil {
			return nil, err
		}
		for k, v := range m {
			out[k] += v
		}
	}
	return out, nil
}

// family sums every series of one metric family.
func family(m map[string]float64, name string) float64 {
	var t float64
	for k, v := range m {
		if k == name || strings.HasPrefix(k, name+"{") {
			t += v
		}
	}
	return t
}

// phaseCfg shapes one driver run.
type phaseCfg struct {
	name            string
	rate            float64 // 0 = closed loop
	seed            uint64
	warmup, measure time.Duration
	groups          []string // collector groups scraped around the run
	reqlog          string   // request-log path; "" = none
}

// phaseResult is one measured driver run and what was read around it.
type phaseResult struct {
	dr            *driver.Report
	before, after map[string]float64 // registry scrapes
	allocs        uint64
	cpu           time.Duration
	recs          []olog.Rec // the request log, when one was kept
}

// delta is a family's change across the phase.
func (pr *phaseResult) delta(name string) float64 {
	return family(pr.after, name) - family(pr.before, name)
}

// received is what the servers were sent during the phase: admitted, shed
// and rejected requests.
func (pr *phaseResult) received() float64 {
	return pr.delta("oltpd_requests_total") + pr.delta("oltpd_shed_total") + pr.delta("oltpd_rejected_total")
}

// driveFunc performs one driver run as pc describes.
type driveFunc func(pc phaseCfg) (*driver.Report, error)

// measure runs one driver phase against srvs, scraping the registries and
// reading host counters around it, and loads and removes its request log.
func measure(o opts, parent int, pc phaseCfg, srvs []*server.Server, drive driveFunc) (*phaseResult, error) {
	sp := o.tr.begin(pc.name, parent)
	defer o.tr.end(sp)
	res := &phaseResult{}
	var err error
	if res.before, err = scrape(srvs, pc.groups); err != nil {
		return nil, err
	}
	a0, c0 := totalAlloc(), cpuTime()
	logBase := o.tr.now()
	if res.dr, err = drive(pc); err != nil {
		return nil, fmt.Errorf("%s: %w", pc.name, err)
	}
	res.allocs, res.cpu = totalAlloc()-a0, cpuTime()-c0
	if res.after, err = scrape(srvs, pc.groups); err != nil {
		return nil, err
	}
	if pc.reqlog != "" {
		if _, res.recs, err = olog.ReadFile(pc.reqlog); err != nil {
			return nil, err
		}
		if err := os.Remove(pc.reqlog); err != nil {
			return nil, err
		}
		// The load driver's clock starts after it dials, so request spans sit
		// up to the dial time early on the tracer's clock.
		o.tr.requests(sp, logBase, res.recs)
	}
	return res, nil
}

// checkAnswered applies the serving correctness gate to one driver run
// without a request log: no connection may end with requests in flight
// (the load driver waits for every answer and flags a connection that gives
// up), the run must cover its whole window, nothing may fail, and what the
// server received must match the answers the load driver counted. It
// counts only requests scheduled inside the window, and a closed loop may
// send one more request per connection right at the window's end and
// answer it uncounted, so the server may have received up to conns more.
func checkAnswered(rep *report, phase string, pr *phaseResult) {
	dr := pr.dr
	answered := dr.Ops + dr.Shed + dr.Rejected
	rep.Attempted += answered
	rep.Failed += dr.Errors + dr.Shed + dr.Rejected
	if extra := pr.received() - float64(answered); extra < 0 || extra > conns {
		rep.problem("%s: the server received %.0f requests, the client counted %d answers", phase, pr.received(), answered)
		if extra > 0 {
			rep.Attempted += uint64(extra)
			rep.Failed += uint64(extra)
		}
	}
	if dr.Errors+dr.Shed+dr.Rejected > 0 {
		rep.problem("%s: %d errors, %d shed, %d rejected", phase, dr.Errors, dr.Shed, dr.Rejected)
	}
	checkDrained(rep, phase, dr)
}

// checkLogged is the correctness gate for a phase with a request log: the
// log holds every answered request, so the servers must have received
// exactly expected requests for it, and nothing may have failed.
func checkLogged(rep *report, phase string, pr *phaseResult, expected int) {
	rep.Attempted += uint64(len(pr.recs))
	var failed uint64
	for _, r := range pr.recs {
		if r.Status != olog.StatusOK {
			failed++
		}
	}
	rep.Failed += failed
	if failed > 0 {
		rep.problem("%s: %d requests did not succeed", phase, failed)
	}
	if pr.received() != float64(expected) {
		rep.problem("%s: the servers received %.0f requests, the request log accounts for %d", phase, pr.received(), expected)
	}
	checkDrained(rep, phase, pr.dr)
}

// checkDrained requires every connection to have drained cleanly and the
// run to have covered its window. The load driver measures coverage up to the
// newest completion it counted, which can land a moment before the
// window's end with nothing wrong, so a run must cover 99% of its window:
// a run cut short by a drain or a broken connection falls far below that.
func checkDrained(rep *report, phase string, dr *driver.Report) {
	if dr.DirtyDrains != 0 {
		rep.problem("%s: %d connections ended with unanswered requests in flight", phase, dr.DirtyDrains)
	}
	if dr.Covered < 0.99 {
		rep.problem("%s: run covered only %.1f%% of its window", phase, 100*dr.Covered)
	}
}

// closedStats is the untraced closed loop, measured in one-second windows:
// each window is its own driver run, and every figure is the median over
// the windows, so a burst of host noise moves one window, not the result.
type closedStats struct {
	thr, p50, p99 float64 // window medians: ops/s, ms, ms
	level         float64 // the percentile p99 stands for (see tailLevel)
	n             int     // requests over all windows
	allocs        uint64  // bytes allocated over all windows
	gc            float64 // GC share of CPU over all windows, percent
}

// closedMetrics reports the end-to-end metrics of the closed loop. The tail
// is printed, not gated: during an episode of load from other tenants of
// the host, the p99 of every window rose two- to four-fold for minutes
// while the median moved by 2%, so no bound a metric may have covers it.
// The traced run reports it as driver.closed.p99_ms.
func closedMetrics(rep *report, cs closedStats) {
	rep.add("thr_ops", "1/s", cs.thr, cs.n)
	rep.add("p50_ms", "ms", cs.p50, cs.n)
	rep.Info = append(rep.Info, metric{Name: "p99_ms", Unit: "ms", Value: cs.p99, N: cs.n, Note: levelNote(cs.level)})
	// Allocation per request is printed, not gated: each window's fresh
	// connections and the server's pool refills make it swing by a third
	// between windows, far wider than any bound worth setting.
	rep.info("alloc_b_per_req", "B/req", float64(cs.allocs)/float64(max(cs.n, 1)), cs.n)
}

// Window sizing for the closed loop. A window is long enough for about
// windowReqs requests, twice what a p99 with ten samples beyond it needs,
// and no shorter than minWindow. Short windows keep the median robust: a
// host hiccup of a few milliseconds delays a percent of a window's requests
// and so sets that window's p99, and with quarter-second windows most
// windows see none.
const (
	windowReqs = 2000
	minWindow  = 250 * time.Millisecond
)

// closedLoop runs the end-to-end closed loop: a warm-up run, then back-to-
// back driver runs (windows) for the run's length, each without a request
// log and checked against the server's serving counters. The warm-up's
// throughput sizes the windows.
func closedLoop(o opts, rep *report, srv *server.Server, drive driveFunc) (closedStats, error) {
	var cs closedStats
	sp := o.tr.begin("phase.untraced", 0)
	defer o.tr.end(sp)
	// Collect once before the warm-up, not between windows: a collection
	// empties the server's request pool, which the next window would then
	// refill at its own expense.
	runtime.GC()
	warm, err := drive(phaseCfg{seed: o.seed ^ 0x77a3, warmup: time.Nanosecond, measure: warmSeconds * time.Second})
	if err != nil {
		return cs, fmt.Errorf("warm-up: %w", err)
	}
	window := max(minWindow, time.Duration(windowReqs/max(warm.Throughput, 1)*float64(time.Second)))
	windows := max(1, int(time.Duration(o.seconds)*time.Second/window))
	var thr, p50, p99 []float64
	cs.level = 1
	g0 := readGCClock()
	for w := 0; w < windows; w++ {
		// A 1ns warm-up makes every request of the run a measured one, so the
		// driver's counts can be checked against the server's totals.
		pr, err := measure(o, sp, phaseCfg{name: "closed.window", seed: o.seed + uint64(w)*0x9e37,
			warmup: time.Nanosecond, measure: window, groups: []string{"serving"}}, []*server.Server{srv}, drive)
		if err != nil {
			return cs, err
		}
		checkAnswered(rep, fmt.Sprintf("closed loop, window %d", w), pr)
		n := int(pr.dr.Ops)
		q := tailLevel(n, 0.99)
		cs.level = min(cs.level, q)
		cs.n += n
		cs.allocs += pr.allocs
		thr = append(thr, pr.dr.Throughput)
		p50 = append(p50, pr.dr.Hist.Quantile(0.5)/1e6)
		p99 = append(p99, pr.dr.Hist.Quantile(q)/1e6)
	}
	cs.gc = gcPct(g0, readGCClock())
	cs.thr, cs.p50, cs.p99 = median(thr), median(p50), median(p99)
	return cs, nil
}

func runServe(o opts, rep *report, spec workload.Spec, rate float64) error {
	setup, srv, err := timedSetups(o, spec)
	if err != nil {
		return err
	}
	defer srv.Shutdown()
	rep.setup(setup, setupReps, o.tr != nil)
	drive := func(pc phaseCfg) (*driver.Report, error) {
		return driver.Run(driver.Config{
			Addr: srv.Addr().String(), Spec: spec, Conns: conns, Rate: pc.rate,
			Warmup: pc.warmup, Measure: pc.measure, Seed: pc.seed, ReqLog: pc.reqlog,
		})
	}
	if o.tr == nil {
		cs, err := closedLoop(o, rep, srv, drive)
		if err != nil {
			return err
		}
		closedMetrics(rep, cs)
		return nil
	}
	return traceServe(o, rep, srv, drive, rate, spec)
}

// traceServe is the traced serving run: the closed loop with a request log
// and full registry scrapes around it, the closed loop again untraced (as
// the end-to-end run measures it), the ladder, then the open loop at rate.
// The logged closed loop runs first, warm-up included, on the server no
// request has reached yet: oltpd_request_seconds is a summary kept since
// the server started, which cannot be differenced, so this is how its
// quantiles cover exactly the requests in the log. Each phase runs for half
// the run's seconds, so the traced run fits the time one run may take.
func traceServe(o opts, rep *report, srv *server.Server, drive driveFunc, rate float64, spec workload.Spec) error {
	o.seconds = max(1, o.seconds/2)
	meas := time.Duration(o.seconds) * time.Second
	logDir := filepath.Join(buildDir, "reqlogs")
	srvs := []*server.Server{srv}
	if err := os.MkdirAll(logDir, 0o755); err != nil {
		return err
	}

	runtime.GC()
	sp := o.tr.begin("phase.traced", 0)
	closed, err := measure(o, sp, phaseCfg{name: "closed", seed: o.seed, warmup: warmSeconds * time.Second, measure: meas,
		groups: []string{"serving", "engine", "txn"}, reqlog: filepath.Join(logDir, "closed.olog")}, srvs, drive)
	o.tr.end(sp)
	if err != nil {
		return err
	}
	checkLogged(rep, "traced closed loop", closed, len(closed.recs))

	untraced, err := closedLoop(o, rep, srv, drive)
	if err != nil {
		return err
	}
	ladder, err := runLadder(o)
	if err != nil {
		return err
	}

	sp = o.tr.begin("phase.open", 0)
	open, err := measure(o, sp, phaseCfg{name: "open", rate: rate, seed: o.seed, warmup: warmSeconds * time.Second, measure: meas,
		groups: []string{"serving"}, reqlog: filepath.Join(logDir, "open.olog")}, srvs, drive)
	o.tr.end(sp)
	if err != nil {
		return err
	}
	checkLogged(rep, "open loop", open, len(open.recs))

	pop, gen, err := populateAndGen(spec, 2, o.seed)
	if err != nil {
		return err
	}
	rep.merge(ladder)
	pmuMetrics(rep, closed)
	rep.add("workload.populate_s", "s", pop, 1)
	rep.add("workload.gen_ns", "ns", gen, genN)
	servingMetrics(rep, closed)
	openMetrics(rep, open, warmSeconds*time.Second, meas, rate)
	rep.addNote("driver.closed.p99_ms", "ms", untraced.p99, untraced.n, levelNote(untraced.level))
	rep.add("trace.overhead_pct", "%", overheadPct(untraced.thr, closed.dr.Throughput), 2)
	rep.add("host.gc_cpu_pct", "%", untraced.gc, 1)
	rep.add("host.alloc_b_per_op", "B/op", float64(closed.allocs)/float64(max(len(closed.recs), 1)), len(closed.recs))
	rep.add("host.peak_rss_mb", "MB", peakRSSMB(), 1)
	rep.info("thr_ops.untraced", "1/s", untraced.thr, untraced.n)
	rep.info("thr_ops.traced", "1/s", closed.dr.Throughput, int(closed.dr.Ops))
	return nil
}

// levelNote names the percentile a tail metric actually reports when the
// sample count forced it below p99.
func levelNote(q float64) string {
	switch {
	case q == 1:
		return "max: too few samples for a percentile"
	case q < 0.99:
		return fmt.Sprintf("p%g: too few samples for p99", q*100)
	}
	return ""
}

// pmuMetrics reports the simulated-PMU and host-cost metrics of a traced
// phase from the engine collector-group deltas.
func pmuMetrics(rep *report, pr *phaseResult) {
	instr, tx, aborts := pr.delta("oltpd_instructions_total"), pr.delta("oltpd_tx_total"), pr.delta("oltpd_aborts_total")
	misses := func(level string) float64 {
		var t float64
		for k, v := range pr.after {
			if strings.HasPrefix(k, "oltpd_cache_misses_total{") && strings.Contains(k, `level="`+level+`"`) {
				t += v - pr.before[k]
			}
		}
		return t
	}
	rep.add("core.host_ns_per_sim_instr", "ns", float64(pr.cpu.Nanoseconds())/instr, int(instr))
	rep.add("core.l1i_mpki", "1/kI", 1000*misses("l1i")/instr, int(instr))
	rep.add("core.llc_mpki", "1/kI", 1000*(misses("llci")+misses("llcd"))/instr, int(instr))
	rep.add("engine.sim_instr_per_tx", "instr", instr/tx, int(tx))
	rep.add("engine.sim_cycles_per_tx", "cycles", pr.delta("oltpd_cycles_total")/tx, int(tx))
	rep.add("engine.abort_ratio", "ratio", aborts/(tx+aborts), int(tx+aborts))
}

// servingMetrics reports the server layer of the traced closed-loop phase.
// Service quantiles come from oltpd_request_seconds, whose per-shard
// summaries cover every request since the server started; traceServe runs
// this phase first, so they cover the same requests as the request log,
// warm-up included. The shards' quantiles are averaged weighted by their
// request counts, and server.net_client_us compares their median with the
// median send-to-answer time of every logged request.
func servingMetrics(rep *report, pr *phaseResult) {
	svc := func(q string) float64 {
		var sum, n float64
		for k, v := range pr.after {
			if strings.HasPrefix(k, "oltpd_request_seconds{") && strings.HasSuffix(k, `quantile="`+q+`"}`) {
				shard := k[len("oltpd_request_seconds{"):strings.Index(k, ",")]
				c := pr.after["oltpd_request_seconds_count{"+shard+"}"]
				sum += v * c
				n += c
			}
		}
		if n == 0 {
			return 0
		}
		return sum / n
	}
	reqs := pr.delta("oltpd_requests_total")
	p50 := svc("0.5")
	rtt := make([]float64, len(pr.recs))
	for i, r := range pr.recs {
		rtt[i] = float64(r.Service())
	}
	n := int(family(pr.after, "oltpd_request_seconds_count"))
	if n != len(pr.recs) {
		rep.problem("the service summary covers %d requests, the request log %d: the phase did not start on a fresh server", n, len(pr.recs))
	}
	rep.add("server.service_p50_ms", "ms", 1000*p50, n)
	rep.add("server.service_p99_ms", "ms", 1000*svc("0.99"), n)
	rep.add("server.batch_size", "req", reqs/pr.delta("oltpd_batches_total"), int(reqs))
	rep.add("server.net_client_us", "us", median(rtt)/1e3-1e6*p50, len(rtt))
	rep.add("server.shed", "count", pr.delta("oltpd_shed_total"), int(reqs))
	rep.add("server.rejected", "count", pr.delta("oltpd_rejected_total"), int(reqs))
}

// openMetrics reports the open-loop phase from its request log.
func openMetrics(rep *report, pr *phaseResult, warm, meas time.Duration, rate float64) {
	st := analyzeOpen(pr.recs, warm.Nanoseconds(), (warm + meas).Nanoseconds())
	n := len(st.Latency)
	q := tailLevel(n, 0.99)
	backlog := 0.0
	if st.Backlog {
		backlog = 1
		rep.warn("open loop at %.0f ops/s: backlog grew from %d to %d outstanding requests (achieved %.0f ops/s); its latencies measure the queue",
			rate, st.MidOutstanding, st.EndOutstanding, st.Achieved)
	}
	rep.add("driver.open.p50_ms", "ms", quantile(st.Latency, 0.5)/1e6, n)
	rep.addNote("driver.open.p99_ms", "ms", quantile(st.Latency, q)/1e6, n, levelNote(q))
	rep.add("driver.open.achieved_ops", "1/s", st.Achieved, n)
	rep.add("driver.open.backlog", "bool", backlog, n)
	rep.add("driver.lag_p50_us", "us", quantile(st.Lag, 0.5)/1e3, n)
	rep.addNote("driver.lag_p99_us", "us", quantile(st.Lag, q)/1e3, n, levelNote(q))
	rep.info("driver.open.offered_ops", "1/s", st.Offered, st.Scheduled)
	rep.info("driver.open.report_throughput", "1/s", pr.dr.Throughput, int(pr.dr.Ops))
}

// genN is how many calls workload.gen_ns times.
const genN = 1 << 16

// populateAndGen builds the engine a workload's data lives in, times its
// population, then times Workload.Gen.
func populateAndGen(spec workload.Spec, cores int, seed uint64) (popSecs, genNs float64, err error) {
	e := systems.New(systems.VoltDB, systems.Options{Cores: cores})
	if err := spec.Validate(e.Partitions()); err != nil {
		return 0, 0, err
	}
	wl := spec.New(e.Partitions())
	wl.Setup(e)
	e.Machine().Arena.EnableTracing(false)
	runtime.GC()
	t0 := time.Now()
	wl.Populate(e)
	popSecs = time.Since(t0).Seconds()
	rng := workload.NewRand(seed)
	parts := e.Partitions()
	genNs = perOp(genN, func() {
		args := 0
		for i := 0; i < genN; i++ {
			args += len(wl.Gen(rng, i%parts, parts).Args)
		}
		sink.Add(int64(args))
	})
	return popSecs, genNs, nil
}
