package main

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"oltpsim/internal/catalog"
	"oltpsim/internal/core"
	"oltpsim/internal/driver"
	"oltpsim/internal/engine"
	"oltpsim/internal/simmem"
	"oltpsim/internal/systems"
	"oltpsim/internal/workload"
)

// The ladder times one layer per rung, each with constant simulated work
// and its set-up outside the timer: cache access, hierarchy serial and
// concurrent, engine transaction serial and concurrent, session batch, TCP
// loopback to one oltpd, and the cluster client (see cluster.go). Every
// rung repeats its timed loop rungReps times and reports the median
// per-operation time; the transaction rungs also report simulated
// instructions per transaction, so the host cost of a layer is the
// difference between adjacent rungs at the same simulated work.
const rungReps = 5

// The served datasets: the serve-micro and cluster tables, and the
// serve-tpcc warehouses.
var (
	microSpec   = workload.Spec{Kind: "micro", Rows: 100_000, RowsPerTx: 1}
	microRWSpec = workload.Spec{Kind: "micro", Rows: 100_000, RowsPerTx: 1, ReadWrite: true}
	tpccSpec    = workload.Spec{Kind: "tpcc", Warehouses: 4}
)

// sink keeps timed results observable so the compiler cannot drop the calls;
// the concurrent rungs add to it from two goroutines.
var sink atomic.Int64

// perOp runs body rungReps times and returns the median nanoseconds per
// operation, where each call of body performs ops operations.
func perOp(ops int, body func()) float64 {
	xs := make([]float64, rungReps)
	for i := range xs {
		t0 := time.Now()
		body()
		xs[i] = float64(time.Since(t0).Nanoseconds()) / float64(ops)
	}
	return median(xs)
}

// runLadder runs every rung, one span each, and returns their metrics and
// correctness checks (the harness rung's golden comparison and the cluster
// rung's driver run).
func runLadder(o opts) (*report, error) {
	l := &report{}
	root := o.tr.begin("ladder", 0)
	defer o.tr.end(root)
	steps := []struct {
		name string
		f    func(span int) error
	}{
		{"cache", func(int) error { rungCache(l, o.seed); return nil }},
		{"hierarchy", func(int) error { rungHierarchy(l, o.seed); return nil }},
		{"engine", func(int) error { return rungEngine(l, o.seed) }},
		{"engine_tpcc", func(int) error { return rungEngineTPCC(l, o.seed) }},
		{"session_batch", func(int) error { return rungBatch(l, o.seed) }},
		{"harness", func(span int) error { return rungHarness(l, o, span) }},
		{"loopback", func(int) error { return rungLoopback(l, o.seed) }},
		{"cluster", func(span int) error { return rungCluster(l, o, span) }},
	}
	for _, s := range steps {
		sp := o.tr.begin("rung."+s.name, root)
		err := s.f(sp)
		o.tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("rung %s: %w", s.name, err)
		}
	}
	return l, nil
}

// --- core -------------------------------------------------------------------

const coreOps = 1 << 16

// rungCache times Cache.Access on an L2-geometry cache over a working set
// twice its capacity (about half the accesses miss).
func rungCache(l *report, seed uint64) {
	g := core.IvyBridge(1).L2
	c := core.NewCache(g)
	lines := 2 * g.SizeBytes / g.LineBytes
	rng := workload.NewRand(seed)
	seq := make([]uint64, coreOps)
	for i := range seq {
		seq[i] = uint64(rng.Intn(lines))
	}
	pass := func() {
		hits := 0
		for _, id := range seq {
			if c.Access(id, core.ClassData) {
				hits++
			}
		}
		sink.Add(int64(hits))
	}
	pass()
	l.add("core.cache_access_ns", "ns", perOp(len(seq), pass), rungReps*len(seq))
}

const (
	codeLines = 1024 // 64KB of code: twice the L1I
	fetchRun  = 8    // lines per FetchCode call
)

// hierSeqs builds the access streams of the hierarchy rungs: FetchCode runs
// of fetchRun lines at random offsets in a 64KB code footprint, and 8-byte
// data reads at random lines of a data set four times the 20MB LLC.
func hierSeqs(seed uint64) (code, data []simmem.Addr) {
	rng := workload.NewRand(seed)
	llc := core.IvyBridge(1).LLC.SizeBytes
	code = make([]simmem.Addr, coreOps)
	data = make([]simmem.Addr, coreOps)
	for i := range code {
		code[i] = simmem.CodeBase + simmem.Addr(rng.Intn(codeLines-fetchRun)*core.LineBytes)
		data[i] = simmem.DataBase + simmem.Addr(rng.Intn(4*llc/core.LineBytes)*core.LineBytes)
	}
	return code, data
}

// rungHierarchy times FetchCode and DataAccess serially on one core, then
// with the hierarchy in concurrent mode and two goroutines on two cores of
// one socket (the configuration a two-shard oltpd serves in).
func rungHierarchy(l *report, seed uint64) {
	code, data := hierSeqs(seed)
	h := core.NewHierarchy(core.IvyBridge(1))
	fetch := func(h *core.Hierarchy, c int, seq []simmem.Addr) func() {
		return func() {
			st := 0
			for _, a := range seq {
				st += h.FetchCode(c, a, fetchRun)
			}
			sink.Add(int64(st))
		}
	}
	access := func(h *core.Hierarchy, c int, seq []simmem.Addr) func() {
		return func() {
			st := 0
			for _, a := range seq {
				st += h.DataAccess(c, a, 8, false)
			}
			sink.Add(int64(st))
		}
	}
	fetch(h, 0, code)()
	access(h, 0, data)()
	l.add("core.fetch_code_ns", "ns", perOp(len(code), fetch(h, 0, code)), rungReps*len(code))
	l.add("core.data_access_ns", "ns", perOp(len(data), access(h, 0, data)), rungReps*len(data))

	hm := core.NewHierarchy(core.IvyBridge(2))
	hm.SetConcurrent(true)
	code2, data2 := hierSeqs(seed + 1)
	both := func(f0, f1 func()) func() {
		return func() {
			var wg sync.WaitGroup
			wg.Add(2)
			go func() { defer wg.Done(); f0() }()
			go func() { defer wg.Done(); f1() }()
			wg.Wait()
		}
	}
	fetchMT := both(fetch(hm, 0, code), fetch(hm, 1, code2))
	accessMT := both(access(hm, 0, data), access(hm, 1, data2))
	fetchMT()
	accessMT()
	l.add("core.fetch_code_mt_ns", "ns", perOp(len(code), fetchMT), 2*rungReps*len(code))
	l.add("core.data_access_mt_ns", "ns", perOp(len(data), accessMT), 2*rungReps*len(data))
	hm.SetConcurrent(false)
}

// --- engine -----------------------------------------------------------------

// newEngine builds and populates an engine the way oltpd does: population
// untraced, then tracing on.
func newEngine(sys systems.Kind, cores int, spec workload.Spec) (*engine.Engine, workload.Workload, error) {
	e := systems.New(sys, systems.Options{Cores: cores})
	if err := spec.Validate(e.Partitions()); err != nil {
		return nil, nil, err
	}
	wl := spec.New(e.Partitions())
	wl.Setup(e)
	e.Machine().Arena.EnableTracing(false)
	wl.Populate(e)
	e.Machine().Arena.EnableTracing(true)
	return e, wl, nil
}

// genCalls pre-generates n calls for partition part (arguments deep-copied
// out of the generator's recycled buffers), so the timed loops execute only.
func genCalls(wl workload.Workload, rng *workload.Rand, n, part, parts int) []engine.Request {
	reqs := make([]engine.Request, n)
	for i := range reqs {
		c := wl.Gen(rng, part, parts)
		args := make([]catalog.Value, len(c.Args))
		for j, a := range c.Args {
			args[j] = catalog.Value{I: a.I}
			if a.S != nil {
				args[j].S = append([]byte{}, a.S...)
			}
		}
		reqs[i] = engine.Request{Part: part, Proc: c.Proc, Args: args}
	}
	return reqs
}

// txCost is one engine rung's result: host microseconds and simulated
// instructions per transaction, over n transactions.
type txCost struct {
	us, instr float64
	n         int
}

// invokeTimed times Session.Invoke over reqs on one core, rungReps chunks,
// and returns the median nanoseconds per transaction. It reads no PMU
// counters, so two goroutines may time different cores at once.
func invokeTimed(e *engine.Engine, reqs []engine.Request, core int) (float64, error) {
	sess := e.NewSession()
	chunk := len(reqs) / rungReps
	i := 0
	var failed error
	ns := perOp(chunk, func() {
		for _, r := range reqs[i : i+chunk] {
			if err := sess.Invoke(core, r.Part, r.Proc, r.Args...); err != nil && failed == nil {
				failed = err
			}
		}
		i += chunk
	})
	return ns, failed
}

// invokeSerial is invokeTimed plus the simulated instructions per
// transaction, read from the machine's counters around the timed loop.
func invokeSerial(e *engine.Engine, reqs []engine.Request, core int) (txCost, error) {
	before := engineSnap(e)
	ns, err := invokeTimed(e, reqs, core)
	d := engineSnap(e).Sub(before)
	return txCost{us: ns / 1e3, instr: float64(d.Instructions) / float64(d.TxCount), n: len(reqs) / rungReps * rungReps}, err
}

// rungEngine times one serial micro read-only transaction on each archetype
// over the serve-micro table (100k rows, inside the LLC).
func rungEngine(l *report, seed uint64) error {
	for _, sys := range systems.All() {
		e, wl, err := newEngine(sys, 1, microSpec)
		if err != nil {
			return err
		}
		rng := workload.NewRand(seed)
		if _, err := invokeSerial(e, genCalls(wl, rng, 1000, 0, 1), 0); err != nil { // warm
			return err
		}
		c, err := invokeSerial(e, genCalls(wl, rng, 4000, 0, 1), 0)
		if err != nil {
			return err
		}
		// The archetype's command-line name: "Shore-MT" -> "shore-mt", "DBMS D" -> "dbmsd".
		name := "engine.invoke_us." + strings.ToLower(strings.ReplaceAll(sys.String(), " ", ""))
		l.add(name, "us", c.us, c.n)
		l.add(name+".sim_instr", "instr", c.instr, c.n)
	}
	return nil
}

// rungEngineTPCC times TPC-C transactions on the serve-tpcc engine (VoltDB,
// two partitions, 4 warehouses): serially through one session, then in
// concurrent mode with one goroutine per partition.
func rungEngineTPCC(l *report, seed uint64) error {
	e, wl, err := newEngine(systems.VoltDB, 2, tpccSpec)
	if err != nil {
		return err
	}
	rng := workload.NewRand(seed)
	const n = 500
	warm := [2][]engine.Request{genCalls(wl, rng, 100, 0, 2), genCalls(wl, rng, 100, 1, 2)}
	calls := [2][]engine.Request{genCalls(wl, rng, n, 0, 2), genCalls(wl, rng, n, 1, 2)}
	for c := 0; c < 2; c++ {
		if _, err := invokeSerial(e, warm[c], c); err != nil {
			return err
		}
	}
	var serial [2]txCost
	for c := 0; c < 2; c++ {
		if serial[c], err = invokeSerial(e, calls[c], c); err != nil {
			return err
		}
	}
	l.add("engine.invoke_tpcc_us", "us", (serial[0].us+serial[1].us)/2, serial[0].n+serial[1].n)
	l.add("engine.invoke_tpcc_us.sim_instr", "instr", (serial[0].instr+serial[1].instr)/2, serial[0].n+serial[1].n)

	if err := e.EnterConcurrent(); err != nil {
		return fmt.Errorf("entering concurrent mode: %w", err)
	}
	defer e.LeaveConcurrent()
	mt := [2][]engine.Request{genCalls(wl, rng, n, 0, 2), genCalls(wl, rng, n, 1, 2)}
	var ns [2]float64
	var errs [2]error
	before := engineSnap(e)
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			ns[c], errs[c] = invokeTimed(e, mt[c], c)
		}(c)
	}
	wg.Wait()
	d := engineSnap(e).Sub(before)
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	l.add("engine.invoke_mt_us", "us", (ns[0]+ns[1])/2e3, 2*n)
	l.add("engine.invoke_mt_us.sim_instr", "instr", float64(d.Instructions)/float64(d.TxCount), 2*n)
	return nil
}

// rungBatch times Session.InvokeBatch of 8 micro requests on the serve-micro
// engine in its served (concurrent) mode, per request.
func rungBatch(l *report, seed uint64) error {
	e, wl, err := newEngine(systems.VoltDB, 2, microSpec)
	if err != nil {
		return err
	}
	if err := e.EnterConcurrent(); err != nil {
		return fmt.Errorf("entering concurrent mode: %w", err)
	}
	defer e.LeaveConcurrent()
	const batch, batches = 8, 500
	rng := workload.NewRand(seed)
	reqs := genCalls(wl, rng, batch*batches*(rungReps+1), 0, 2)
	sess := e.NewSession()
	errs := make([]error, batch)
	var failed error
	i := 0
	run := func() {
		for b := 0; b < batches; b++ {
			sess.InvokeBatch(0, reqs[i:i+batch], errs)
			i += batch
			for _, err := range errs {
				if err != nil && failed == nil {
					failed = err
				}
			}
		}
	}
	run() // warm
	before := engineSnap(e)
	us := perOp(batch*batches, run) / 1e3
	d := engineSnap(e).Sub(before)
	if failed != nil {
		return failed
	}
	n := rungReps * batch * batches
	l.add("engine.batch8_us", "us", us, n)
	l.add("engine.batch8_us.sim_instr", "instr", float64(d.Instructions)/float64(d.TxCount), n)
	return nil
}

// --- server -----------------------------------------------------------------

// engineSnap reads an engine's PMU totals under its execution locks.
func engineSnap(e *engine.Engine) core.Snapshot {
	var s core.Snapshot
	e.Observe(func(m *core.Machine) { s = m.Snapshot() })
	return s
}

// Each loopback rung run measures rttWindow after a short warm-up on its
// freshly dialled connection.
const rttWindow = 200 * time.Millisecond

// rungLoopback times the TCP loopback round trip to a default two-shard
// serve-micro oltpd over one connection of the load driver's own client:
// one request outstanding, then eight. Each figure is the median, over
// rungReps driver runs, of the window over the requests completed in it,
// so it includes the client's generation of each call (workload.gen_ns).
func rungLoopback(l *report, seed uint64) error {
	srv, err := startServer(microSpec)
	if err != nil {
		return err
	}
	defer srv.Shutdown()
	perReq := func(pipeline int) (us float64, n int, instr float64, err error) {
		run := func(rep int) (*driver.Report, error) {
			dr, err := driver.Run(driver.Config{Addr: srv.Addr().String(), Spec: microSpec, Conns: 1, Pipeline: pipeline,
				Warmup: 20 * time.Millisecond, Measure: rttWindow, Seed: seed + uint64(rep)})
			if err == nil && (dr.Errors+dr.Shed+dr.Rejected+dr.DirtyDrains != 0 || dr.Ops == 0) {
				err = fmt.Errorf("pipeline %d: %d ops, %d errors, %d shed, %d rejected, %d dirty drains",
					pipeline, dr.Ops, dr.Errors, dr.Shed, dr.Rejected, dr.DirtyDrains)
			}
			return dr, err
		}
		if _, err := run(rungReps); err != nil { // warm
			return 0, 0, 0, err
		}
		before := engineSnap(srv.Engine())
		xs := make([]float64, rungReps)
		for i := range xs {
			dr, err := run(i)
			if err != nil {
				return 0, 0, 0, err
			}
			xs[i] = 1e6 / dr.Throughput
			n += int(dr.Ops)
		}
		d := engineSnap(srv.Engine()).Sub(before)
		return median(xs), n, float64(d.Instructions) / float64(d.TxCount), nil
	}
	rtt, n1, instr1, err := perReq(1)
	if err != nil {
		return err
	}
	rtt8, n8, instr8, err := perReq(8)
	if err != nil {
		return err
	}
	l.add("server.rtt_us", "us", rtt, n1)
	l.add("server.rtt_us.sim_instr", "instr", instr1, n1)
	l.add("server.rtt_batch8_us", "us", rtt8, n8)
	l.add("server.rtt_batch8_us.sim_instr", "instr", instr8, n8)
	return nil
}
