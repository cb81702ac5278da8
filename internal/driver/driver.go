// Package driver implements oltpdrive, a warp-style concurrent load
// generator for oltpd: N connections generating one of the five workload
// archetypes, under closed-loop (send → wait → send) or open-loop
// (fixed-rate or Poisson arrivals) scheduling, with per-op latency captured
// into a fixed-bucket log-linear histogram and reported as
// p50/p90/p99/p999 over a measurement window that starts after a warmup.
//
// One driver loop (run) serves a single oltpd and a cluster of them alike:
// only the per-connection transport differs — a pipelined client on one
// socket, or a synchronous routing 2PC coordinator over one socket per node.
//
// Open-loop latencies are measured from each request's *scheduled* arrival
// time, not its actual send time, so queueing delay under overload is
// charged to the server rather than silently absorbed by a slow sender
// (the coordinated-omission correction the warp-style drivers apply).
package driver

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"oltpsim/internal/cluster"
	"oltpsim/internal/metrics"
	"oltpsim/internal/olog"
	"oltpsim/internal/wire"
	"oltpsim/internal/workload"
)

// Config shapes a driver run.
type Config struct {
	// Addr is the oltpd address ("host:port"); unused in cluster mode.
	Addr string
	// Map, when set, selects cluster mode: every connection is a routing
	// 2PC coordinator (cluster.Conn) over the nodes at Addrs, indexed by
	// node ID (the length must match Map.Nodes).
	Map   *cluster.ShardMap
	Addrs []string
	// MPRate is the percentage [0,100] of transactional calls a cluster-mode
	// coordinator issues as two-branch multi-partition (2PC) transactions.
	MPRate int
	// Spec is the traffic to generate; it must match the server's workload
	// (the Hello exchange verifies this).
	Spec workload.Spec
	// Conns is the number of concurrent client connections (default 4).
	Conns int
	// Rate is the total offered load in ops/s across all connections;
	// 0 selects closed-loop operation.
	Rate float64
	// Poisson selects exponential inter-arrival times in open loop
	// (default: fixed spacing).
	Poisson bool
	// Pipeline caps in-flight requests per connection (default 1 for closed
	// loop — the classic one-outstanding client — and 128 for open loop).
	// Cluster mode is synchronous: Pipeline must be 1 (its default there).
	Pipeline int
	// Warmup and Measure bound the run: Warmup of traffic to heat caches
	// and JIT the path, then Measure of recorded traffic (defaults 1s / 3s).
	Warmup, Measure time.Duration
	// Seed drives the (deterministic) per-connection generators.
	Seed uint64
	// Profile shapes the offered rate over the measurement window (open loop
	// only): the instantaneous rate at fraction f of the window is
	// Rate · Profile.Mult(f). nil = steady. See ParseProfile for the
	// vocabulary and scenario.go for time-compressed replay.
	Profile Profile
	// ReqLog, when non-empty, persists one binary olog record per request
	// (scheduled/start/done times, shard, archetype, status, flags) to this
	// path at the end of the run. Capture is buffered per connection and
	// allocation-free on the read loop; see internal/olog.
	ReqLog string
	// AutoTerm stops the measurement window early once throughput is stable:
	// a monitor samples completed ops every AutoTermWindow/autotermSamples
	// and ends traffic when the coefficient of variation over the rolling
	// window drops to AutoTermPct percent or below (warp's -autoterm).
	AutoTerm bool
	// AutoTermWindow is the rolling stability window (default 2s).
	AutoTermWindow time.Duration
	// AutoTermPct is the CV threshold in percent (default 7.5).
	AutoTermPct float64
}

func (c Config) withDefaults() Config {
	if c.Conns <= 0 {
		c.Conns = 4
	}
	if c.Pipeline <= 0 {
		if c.Rate > 0 && c.Map == nil {
			c.Pipeline = 128
		} else {
			c.Pipeline = 1
		}
	}
	if c.Warmup <= 0 {
		c.Warmup = time.Second
	}
	if c.Measure <= 0 {
		c.Measure = 3 * time.Second
	}
	if c.Spec.Kind == "" {
		c.Spec = workload.DefaultSpec()
	}
	if c.AutoTerm {
		if c.AutoTermWindow <= 0 {
			c.AutoTermWindow = 2 * time.Second
		}
		if c.AutoTermPct <= 0 {
			c.AutoTermPct = 7.5
		}
	}
	return c
}

func (c Config) validate() error {
	if c.Profile != nil && c.Rate <= 0 {
		return fmt.Errorf("driver: load profiles require open-loop operation (set Rate)")
	}
	if c.Map == nil {
		if c.MPRate != 0 {
			return fmt.Errorf("driver: a multi-partition rate needs cluster mode (set Map and Addrs)")
		}
		return nil
	}
	if len(c.Addrs) != c.Map.Nodes {
		return fmt.Errorf("driver: %d addrs for a %d-node map", len(c.Addrs), c.Map.Nodes)
	}
	if c.MPRate < 0 || c.MPRate > 100 {
		return fmt.Errorf("driver: multi-partition rate %d%% out of [0,100]", c.MPRate)
	}
	if c.Pipeline > 1 {
		return fmt.Errorf("driver: cluster mode runs one synchronous coordinator per connection; pipeline %d is not supported (raise Conns instead)", c.Pipeline)
	}
	return nil
}

// Report is the outcome of a run. Latency quantiles cover the measurement
// window only.
type Report struct {
	Spec      string
	Shards    int
	Conns     int
	Rate      float64 // offered; 0 = closed loop
	Elapsed   time.Duration
	Ops       uint64 // measured completed ops
	Errors    uint64 // measured failed ops (included in Ops)
	Rejected  uint64 // ops refused by a draining server (not in Ops)
	Shed      uint64 // measured ops shed by admission control (wire.StatusOverload; not in Ops)
	MultiPart uint64 // measured committed multi-partition (2PC) transactions (in Ops) — cluster mode
	// DirtyDrains counts connections whose in-flight tail had to be abandoned
	// at the drain deadline instead of being reclaimed token by token; a
	// clean run reports 0.
	DirtyDrains uint64
	// Covered is the fraction of the nominal measurement window the run
	// actually covered (1.0 for a full window). A run cut short — server
	// drain, socket error, or autoterm — clamps Elapsed to the covered span;
	// Covered surfaces how much was lost instead of shrinking it silently.
	Covered float64
	// AutoTerm reports that the stability monitor ended the window early.
	AutoTerm   bool
	Throughput float64
	Mean       time.Duration
	P50        time.Duration
	P90        time.Duration
	P99        time.Duration
	P999       time.Duration
	Max        time.Duration

	// Hist is the merged latency histogram (nanoseconds).
	Hist *metrics.Histogram
}

// String renders the human-readable report oltpdrive prints.
func (r *Report) String() string {
	var b strings.Builder
	mode := "closed-loop"
	if r.Rate > 0 {
		mode = fmt.Sprintf("open-loop %.0f ops/s offered", r.Rate)
	}
	fmt.Fprintf(&b, "oltpdrive: %s  conns=%d  %s\n", r.Spec, r.Conns, mode)
	fmt.Fprintf(&b, "  window     %.2fs measured (%d shards", r.Elapsed.Seconds(), r.Shards)
	if r.Covered > 0 && r.Covered < 0.999 {
		fmt.Fprintf(&b, ", %.0f%% of nominal", r.Covered*100)
	}
	if r.AutoTerm {
		b.WriteString(", autoterm")
	}
	b.WriteString(")\n")
	fmt.Fprintf(&b, "  throughput %.0f ops/s  (%d ops, %d errors, %d rejected, %d shed)\n",
		r.Throughput, r.Ops, r.Errors, r.Rejected, r.Shed)
	if r.MultiPart > 0 {
		fmt.Fprintf(&b, "  2pc        %d multi-partition commits\n", r.MultiPart)
	}
	fmt.Fprintf(&b, "  latency    mean %s  p50 %s  p90 %s  p99 %s  p999 %s  max %s\n",
		fmtDur(r.Mean), fmtDur(r.P50), fmtDur(r.P90), fmtDur(r.P99), fmtDur(r.P999), fmtDur(r.Max))
	return b.String()
}

func fmtDur(d time.Duration) string {
	switch {
	case d < 10*time.Microsecond:
		return fmt.Sprintf("%.2fµs", float64(d.Nanoseconds())/1e3)
	case d < 10*time.Millisecond:
		return fmt.Sprintf("%.0fµs", float64(d.Nanoseconds())/1e3)
	case d < 10*time.Second:
		return fmt.Sprintf("%.1fms", float64(d.Nanoseconds())/1e6)
	default:
		return d.Round(time.Millisecond).String()
	}
}

// Run executes the configured load against the server (or, with Map set,
// the cluster) and returns the measured report.
func Run(cfg Config) (*Report, error) { return run(cfg) }

// A monitor watches a run's connections while traffic flows: the autoterm
// stability monitor and the scenario timeline observer are monitors. start
// is called once every connection is established, stop after every
// connection has finished.
type monitor interface {
	start(conns []*conn, base time.Time, warmEnd, end int64)
	stop()
}

// run is the one driver loop behind Run, RunCluster and RunScenario. It
// establishes every connection, then drives each through its transport
// until the window ends, with the given monitors watching, and assembles
// the report. Single-node and cluster runs differ only in the transport.
func run(cfg Config, mons ...monitor) (*Report, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}

	// Establish every connection (Hello + prepare) before traffic starts, so
	// the warmup window measures serving, not ramp-up.
	conns := make([]*conn, cfg.Conns)
	closeAll := func() {
		for _, c := range conns {
			if c != nil {
				c.tr.close()
			}
		}
	}
	for i := range conns {
		tr, shards, err := dialTransport(cfg)
		if err != nil {
			closeAll()
			return nil, fmt.Errorf("driver: conn %d: %w", i, err)
		}
		conns[i] = &conn{
			tr:     tr,
			shards: shards,
			rng:    workload.NewRand(cfg.Seed ^ 0x5eed<<32 ^ uint64(i)*1_000_003),
			part:   i % shards,
			hist:   &metrics.Histogram{},
		}
	}
	shards := conns[0].shards
	if err := cfg.Spec.Validate(shards); err != nil {
		closeAll()
		return nil, err
	}
	procs := cfg.Spec.ProcNames()
	procIdx := make(map[string]uint16, len(procs))
	for i, name := range procs {
		procIdx[name] = uint16(i)
	}

	var rlog *olog.Log
	if cfg.ReqLog != "" {
		var err error
		rlog, err = olog.Create(cfg.ReqLog, olog.Header{
			Spec:      cfg.Spec.String(),
			Shards:    shards,
			Conns:     cfg.Conns,
			Rate:      cfg.Rate,
			Seed:      cfg.Seed,
			WarmupNs:  cfg.Warmup.Nanoseconds(),
			MeasureNs: cfg.Measure.Nanoseconds(),
			Procs:     procs,
		})
		if err != nil {
			closeAll()
			return nil, err
		}
	}

	warmEnd := cfg.Warmup.Nanoseconds()
	end := warmEnd + cfg.Measure.Nanoseconds()
	for i, c := range conns {
		c.wl = cfg.Spec.New(shards)
		c.procIdx = procIdx
		c.warmEnd, c.end = warmEnd, end
		if cfg.Rate > 0 {
			c.pc = newPacer(cfg, i)
		}
		if rlog != nil {
			c.rlog = rlog.NewConn()
		}
	}
	var at *autoterm
	if cfg.AutoTerm {
		at = &autoterm{window: cfg.AutoTermWindow, pct: cfg.AutoTermPct}
		mons = append(mons, at)
	}
	base := time.Now()
	for _, m := range mons {
		m.start(conns, base, warmEnd, end)
	}
	var wg sync.WaitGroup
	for _, c := range conns {
		c.base = base
		wg.Add(1)
		go func(c *conn) { defer wg.Done(); c.tr.drive(c) }(c)
	}
	wg.Wait()
	for _, m := range mons {
		m.stop()
	}

	rep := &Report{
		Spec:     cfg.Spec.String(),
		Shards:   shards,
		Conns:    cfg.Conns,
		Rate:     cfg.Rate,
		Elapsed:  cfg.Measure,
		AutoTerm: at != nil && at.triggered.Load(),
		Hist:     &metrics.Histogram{},
	}
	var lastDone int64
	for _, c := range conns {
		rep.Hist.Merge(c.hist)
		rep.Ops += c.ops.Load()
		rep.Errors += c.errs.Load()
		rep.Rejected += c.rejected.Load()
		rep.Shed += c.shed.Load()
		rep.MultiPart += c.multiPart.Load()
		if c.dirty.Load() {
			rep.DirtyDrains++
		}
		lastDone = max(lastDone, c.lastMeasured.Load())
	}
	// A run cut short (server drain, socket error, autoterm) measured a
	// shorter window than configured: report throughput over the window
	// actually covered, not the nominal one — and surface the fraction so an
	// under-covered run is visible instead of silently shrunk.
	rep.Covered = 1
	if covered := time.Duration(lastDone - warmEnd); covered > 0 && covered < rep.Elapsed {
		rep.Elapsed = covered
		rep.Covered = float64(covered) / float64(cfg.Measure)
	}
	if s := rep.Elapsed.Seconds(); s > 0 {
		rep.Throughput = float64(rep.Ops) / s
	}
	rep.Mean = time.Duration(rep.Hist.Mean())
	rep.P50 = time.Duration(rep.Hist.Quantile(0.5))
	rep.P90 = time.Duration(rep.Hist.Quantile(0.9))
	rep.P99 = time.Duration(rep.Hist.Quantile(0.99))
	rep.P999 = time.Duration(rep.Hist.Quantile(0.999))
	rep.Max = time.Duration(rep.Hist.Max())
	if rlog != nil {
		if err := rlog.Close(); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// transport moves one connection's requests: the pipelined single-node
// client (pipeConn) or the synchronous routing coordinator over a cluster
// (coordinator).
type transport interface {
	// drive sends c's traffic until its schedule leaves the window, c.stop
	// is raised or the connection fails, recording every answer through
	// c.record; it closes the connection before returning.
	drive(c *conn)
	// close tears the connection down without driving it.
	close()
}

// dialTransport establishes one connection of the configured mode and
// returns the served partition count.
func dialTransport(cfg Config) (transport, int, error) {
	if cfg.Map != nil {
		return dialCoordinator(cfg)
	}
	return dialPipe(cfg)
}

// conn is one driver connection: the generator, the arrival schedule and
// the measurement state both transports share. Counters are atomic because
// monitors sample them while traffic flows.
type conn struct {
	tr      transport
	shards  int
	wl      workload.Workload
	rng     *workload.Rand
	pc      *pacer // open loop: the deterministic (profile-shaped) arrival schedule
	part    int    // next partition, round-robin
	procIdx map[string]uint16
	rlog    *olog.ConnLog // request-log capture buffer; nil when ReqLog is off

	base         time.Time
	warmEnd, end int64 // window bounds, ns since base

	hist      *metrics.Histogram
	ops       atomic.Uint64
	errs      atomic.Uint64
	rejected  atomic.Uint64
	shed      atomic.Uint64
	multiPart atomic.Uint64
	stop      atomic.Bool
	dirty     atomic.Bool // the transport abandoned its in-flight tail at a deadline
	// lastMeasured is the completion time (ns since base) of the newest
	// response recorded in the measurement window; it bounds the effective
	// window when a run ends early (server drain, socket error).
	lastMeasured atomic.Int64
}

// slot describes one request from send to answer.
type slot struct {
	sched   int64  // scheduled arrival, ns since base
	start   int64  // actual send, ns since base (== sched in closed loop)
	shard   uint16 // routed partition
	proc    uint16 // procedure index into Spec.ProcNames()
	measure bool   // scheduled inside the measurement window
	multi   bool   // sent as a multi-partition (2PC) transaction
}

func (c *conn) now() int64 { return time.Since(c.base).Nanoseconds() }

// arrival returns the next request's scheduled time: now in closed loop, the
// pacer's next slot in open loop (sleeping until it). ok is false once the
// schedule leaves the window.
func (c *conn) arrival() (sched int64, ok bool) {
	now := c.now()
	if c.pc == nil {
		return now, now < c.end
	}
	sched = c.warmEnd + int64(c.pc.next()*float64(c.end-c.warmEnd))
	if sched > now {
		time.Sleep(time.Duration(sched - now))
	}
	return sched, sched < c.end
}

// gen draws the next call for the next partition in round-robin order and
// opens its slot, stamped with the send time. Closed loop schedules each
// request at its actual send; open loop keeps the pacer's slot, so a
// lagging sender is charged for its lag.
func (c *conn) gen(sched int64) (workload.Call, slot) {
	p := c.part
	c.part = (c.part + 1) % c.shards
	call := c.wl.Gen(c.rng, p, c.shards)
	proc, ok := c.procIdx[call.Proc]
	if !ok {
		panic(fmt.Sprintf("driver: generator emitted unprepared procedure %q", call.Proc))
	}
	sl := slot{sched: sched, start: c.now(), shard: uint16(p), proc: proc}
	if c.pc == nil {
		sl.sched = sl.start
	}
	sl.measure = sl.sched >= c.warmEnd && sl.sched < c.end
	return call, sl
}

// record accounts one answered request: the request-log record, then the
// counters. A drain refusal counts as rejected and stops the connection; a
// shed counts as shed and leaves the histogram alone (a fast reject is not
// a serviced op); everything else measured is an op, and a failed one an
// error as well.
//
//oltpsim:hotpath
func (c *conn) record(sl *slot, done int64, st wire.Status) {
	if c.rlog != nil {
		var flags uint8
		if sl.measure {
			flags |= olog.FlagMeasured
		}
		if sl.multi {
			flags |= olog.FlagMultiPart
		}
		c.rlog.Record(olog.Rec{
			Sched:  sl.sched,
			Start:  sl.start,
			Done:   done,
			Shard:  sl.shard,
			Proc:   sl.proc,
			Status: st,
			Flags:  flags,
		})
	}
	switch {
	case st == wire.StatusDrain:
		c.rejected.Add(1)
		c.stop.Store(true)
	case !sl.measure:
	case st == wire.StatusOverload:
		c.shed.Add(1)
	default:
		c.hist.Record(uint64(max(done-sl.sched, 0)))
		c.ops.Add(1)
		if st != wire.StatusOK {
			c.errs.Add(1)
		} else if sl.multi {
			c.multiPart.Add(1)
		}
		if done > c.lastMeasured.Load() {
			c.lastMeasured.Store(done)
		}
	}
}
