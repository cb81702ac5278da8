package driver_test

import (
	"fmt"
	"net"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"oltpsim/internal/cluster"
	"oltpsim/internal/driver"
	"oltpsim/internal/metrics"
	"oltpsim/internal/olog"
	"oltpsim/internal/server"
	"oltpsim/internal/systems"
	"oltpsim/internal/wire"
	"oltpsim/internal/workload"
)

// TestDriveClusterLoopback drives a 2-node cluster over loopback with a 20%
// multi-partition rate: the run must complete ops on both nodes and commit a
// nonzero number of 2PC transactions.
func TestDriveClusterLoopback(t *testing.T) {
	m, err := cluster.NewMap("hash", 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	spec := workload.Spec{Kind: "micro", Rows: 4096, RowsPerTx: 2, ReadWrite: true}
	addrs := make([]string, m.Nodes)
	for i := 0; i < m.Nodes; i++ {
		s := startServer(t, server.Config{
			System:  systems.VoltDB,
			Spec:    spec,
			Cluster: m,
			Node:    i,
		})
		addrs[i] = s.Addr().String()
	}

	rep, err := driver.RunCluster(driver.ClusterConfig{
		Addrs:   addrs,
		Map:     m,
		Spec:    spec,
		Conns:   2,
		MPRate:  20,
		Warmup:  50 * time.Millisecond,
		Measure: 300 * time.Millisecond,
		Seed:    1,
	})
	if err != nil {
		t.Fatalf("driver.RunCluster: %v", err)
	}
	if rep.Ops == 0 {
		t.Fatal("no measured ops")
	}
	if rep.Errors != 0 {
		t.Fatalf("%d errors in %d ops", rep.Errors, rep.Ops)
	}
	if rep.MultiPart == 0 {
		t.Fatal("no multi-partition commits at a 20% rate")
	}
	if !strings.Contains(rep.String(), "multi-partition commits") {
		t.Fatalf("report does not mention 2PC:\n%s", rep.String())
	}
}

// TestDriveClusterHybridHighMP is the regression test for the two-branch 2PC
// path under the hybrid workload: the second generated call can come out
// analytic (olap_*), and a cross-partition analytic must NOT be routed as a
// single-partition 2PC branch — the engine refuses such branches, which
// before the fix surfaced as a stream of aborted transactions counted as
// errors. At 80% multi-partition rate with 30% OLAP, the bad path is drawn
// hundreds of times per window, so Errors == 0 is the assertion (the TPC-C
// generator has no natural rollbacks).
func TestDriveClusterHybridHighMP(t *testing.T) {
	if raceEnabled {
		t.Skip("hybrid scans serialize past any window under -race on one core; micro cluster tests cover the 2PC surface")
	}
	m, err := cluster.NewMap("hash", 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	spec := workload.Spec{
		Kind: "hybrid", Warehouses: 4, OLAPPercent: 30,
		Items: 80, CustomersPerDistrict: 15, OrdersPerDistrict: 15,
	}
	addrs := make([]string, m.Nodes)
	for i := 0; i < m.Nodes; i++ {
		s := startServer(t, server.Config{
			System:  systems.VoltDB,
			Spec:    spec,
			Cluster: m,
			Node:    i,
		})
		addrs[i] = s.Addr().String()
	}

	rep, err := driver.RunCluster(driver.ClusterConfig{
		Addrs:   addrs,
		Map:     m,
		Spec:    spec,
		Conns:   2,
		MPRate:  80,
		Warmup:  50 * time.Millisecond,
		Measure: 400 * time.Millisecond,
		Seed:    9,
	})
	if err != nil {
		t.Fatalf("driver.RunCluster: %v", err)
	}
	if rep.Ops == 0 {
		t.Fatal("no measured ops")
	}
	if rep.Errors != 0 {
		t.Fatalf("%d errors in %d ops — analytic second draws mis-routed through 2PC", rep.Errors, rep.Ops)
	}
	if rep.MultiPart == 0 {
		t.Fatal("no multi-partition commits at an 80% rate")
	}
}

// rawClient speaks just enough of the wire protocol to park a shard worker
// between a 2PC vote and its decision (error-returning, so it is safe to use
// off the test goroutine).
type rawClient struct {
	nc  net.Conn
	buf []byte
	w   wire.Buffer
}

func dialRaw(addr string) (*rawClient, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &rawClient{nc: nc}
	typ, _, err := c.read()
	if err != nil {
		nc.Close()
		return nil, err
	}
	if typ != wire.MsgHello {
		nc.Close()
		return nil, fmt.Errorf("handshake frame %#x, want hello", typ)
	}
	return c, nil
}

func (c *rawClient) read() (byte, []byte, error) {
	typ, payload, buf, err := wire.ReadFrame(c.nc, c.buf)
	c.buf = buf
	return typ, payload, err
}

// park registers proc and leaves a 2PC branch prepared-but-undecided on part:
// the partition's worker blocks awaiting the decision and the server's
// request WaitGroup stays open, so a concurrent Shutdown sits in its drain
// phase — refusing all new work with wire.StatusDrain — until release.
func (c *rawClient) park(proc string, part int, gtid uint64) error {
	c.w.Reset(wire.MsgPrepare)
	c.w.U32(1)
	c.w.Str(proc)
	if _, err := c.nc.Write(c.w.Bytes()); err != nil {
		return err
	}
	typ, payload, err := c.read()
	if err != nil {
		return err
	}
	if typ != wire.MsgPrepared {
		return fmt.Errorf("prepare %q: frame %#x (%q)", proc, typ, payload)
	}
	r := wire.NewReader(payload)
	_ = r.U32()
	procID := r.U32()

	c.w.Reset(wire.MsgPrepare2PC)
	c.w.U32(2)
	c.w.U64(gtid)
	c.w.U32(procID)
	c.w.U16(uint16(part))
	c.w.U16(1)
	c.w.U8(wire.TagLong)
	c.w.I64(int64(part)) // micro keys route by key % parts
	if _, err := c.nc.Write(c.w.Bytes()); err != nil {
		return err
	}
	typ, payload, err = c.read()
	if err != nil {
		return err
	}
	if typ != wire.MsgVote {
		return fmt.Errorf("prepare2pc: frame %#x (%q), want vote", typ, payload)
	}
	r = wire.NewReader(payload)
	_ = r.U32()
	if r.U8() != 1 {
		return fmt.Errorf("2PC prepare voted NO: %q", payload)
	}
	return nil
}

// release sends the commit decision for the parked branch and closes.
func (c *rawClient) release(part int, gtid uint64) error {
	defer c.nc.Close()
	c.w.Reset(wire.MsgCommit2PC)
	c.w.U32(3)
	c.w.U64(gtid)
	c.w.U16(uint16(part))
	if _, err := c.nc.Write(c.w.Bytes()); err != nil {
		return err
	}
	typ, payload, err := c.read()
	if err != nil {
		return err
	}
	if typ != wire.MsgOK {
		return fmt.Errorf("commit2pc ack: frame %#x (%q)", typ, payload)
	}
	return nil
}

// TestDriveClusterDrain: taking one node down mid-measure must surface in the
// cluster report the way it does in single-node mode — drain refusals counted
// as Rejected (not errors) and Elapsed corrected down to the window actually
// covered, so throughput is not diluted over dead time. A full Shutdown
// drains in microseconds under a closed-loop micro load, so the test uses
// Drain() — refusing new work while keeping connections alive — with one of
// node 1's shard workers parked behind an undecided 2PC branch: every
// coordinator deterministically takes a wire.StatusDrain refusal, including
// any that slipped into the parked queue first (they unblock at release and
// are refused on their next routed call, the sockets still open).
func TestDriveClusterDrain(t *testing.T) {
	m, err := cluster.NewMap("range", 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	spec := workload.Spec{Kind: "micro", Rows: 4096, RowsPerTx: 1}
	addrs := make([]string, m.Nodes)
	servers := make([]*server.Server, m.Nodes)
	for i := 0; i < m.Nodes; i++ {
		s := startServer(t, server.Config{
			System:  systems.VoltDB,
			Spec:    spec,
			Cluster: m,
			Node:    i,
		})
		servers[i] = s
		addrs[i] = s.Addr().String()
	}

	const gtid = 99
	parkedPart := m.LocalParts(1)[0]
	measure := 2 * time.Second * raceWindowScale
	errc := make(chan error, 1)
	go func() {
		errc <- func() error {
			time.Sleep(150 * time.Millisecond * raceWindowScale)
			rc, err := dialRaw(addrs[1])
			if err != nil {
				return err
			}
			if err := rc.park("micro_ro", parkedPart, gtid); err != nil {
				rc.nc.Close()
				return err
			}
			servers[1].Drain() // synchronous: refusals start before this returns
			time.Sleep(400 * time.Millisecond * raceWindowScale)
			return rc.release(parkedPart, gtid)
		}()
	}()

	rep, err := driver.RunCluster(driver.ClusterConfig{
		Addrs:   addrs,
		Map:     m,
		Spec:    spec,
		Conns:   2,
		MPRate:  20,
		Warmup:  20 * time.Millisecond * raceWindowScale,
		Measure: measure,
		Seed:    5,
	})
	if perr := <-errc; perr != nil {
		t.Fatalf("park/release: %v", perr)
	}
	if err != nil {
		t.Fatalf("driver.RunCluster: %v", err)
	}
	if rep.Ops == 0 {
		t.Fatal("no ops completed before the drain")
	}
	if rep.Rejected == 0 {
		t.Fatal("drain refusals never counted into Rejected")
	}
	if rep.Elapsed >= measure {
		t.Fatalf("Elapsed = %v not corrected below the nominal %v after early termination", rep.Elapsed, measure)
	}
}

// startNodes starts one in-process oltpd per node of m, serving spec.
func startNodes(t *testing.T, m *cluster.ShardMap, spec workload.Spec) ([]*server.Server, []string) {
	t.Helper()
	servers := make([]*server.Server, m.Nodes)
	addrs := make([]string, m.Nodes)
	for i := range servers {
		servers[i] = startServer(t, server.Config{System: systems.VoltDB, Spec: spec, Cluster: m, Node: i})
		addrs[i] = servers[i].Addr().String()
	}
	return servers, addrs
}

// twoPCCommits sums the nodes' committed 2PC branches from /metrics.
func twoPCCommits(t *testing.T, servers []*server.Server) float64 {
	t.Helper()
	var sum float64
	for _, s := range servers {
		rec := httptest.NewRecorder()
		s.Registry().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics?collect=twopc", nil))
		parsed, err := metrics.Parse(rec.Body.String())
		if err != nil {
			t.Fatal(err)
		}
		for k, v := range parsed {
			if strings.HasPrefix(k, "oltpd_2pc_commits_total") {
				sum += v
			}
		}
	}
	return sum
}

// TestDriveClusterOpenLoop runs cluster coordinators under open-loop
// Poisson arrivals with a request log: every record keeps its scheduled
// arrival at or before its send, the multi-partition flag marks exactly the
// committed 2PC calls the nodes saw, and the window is fully covered.
func TestDriveClusterOpenLoop(t *testing.T) {
	m, err := cluster.NewMap("range", 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	spec := workload.Spec{Kind: "micro", Rows: 4096, RowsPerTx: 1, ReadWrite: true}
	servers, addrs := startNodes(t, m, spec)
	path := filepath.Join(t.TempDir(), "run.olog")
	rep, err := driver.Run(driver.Config{
		Map:     m,
		Addrs:   addrs,
		Spec:    spec,
		Conns:   4,
		MPRate:  20,
		Rate:    800,
		Poisson: true,
		Warmup:  50 * time.Millisecond * raceWindowScale,
		Measure: 500 * time.Millisecond * raceWindowScale,
		Seed:    3,
		ReqLog:  path,
	})
	if err != nil {
		t.Fatalf("driver.Run: %v", err)
	}
	if rep.Ops == 0 || rep.Errors != 0 {
		t.Fatalf("ops=%d errors=%d, want ops and no errors", rep.Ops, rep.Errors)
	}
	if rep.Covered < 0.99 {
		t.Fatalf("Covered = %.3f, want >= 0.99", rep.Covered)
	}
	if !strings.Contains(rep.String(), "open-loop") {
		t.Fatalf("report does not mention open loop:\n%s", rep.String())
	}
	_, recs, err := olog.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var committedMP, measuredMP uint64
	for _, r := range recs {
		if r.Sched > r.Start {
			t.Fatalf("record scheduled at %d but sent at %d", r.Sched, r.Start)
		}
		if r.MultiPart() && r.Status == olog.StatusOK {
			committedMP++
			if r.Measured() {
				measuredMP++
			}
		}
	}
	if committedMP == 0 || measuredMP != rep.MultiPart {
		t.Fatalf("log has %d committed 2PC calls (%d measured), report %d", committedMP, measuredMP, rep.MultiPart)
	}
	// Each committed two-branch call commits one branch on each of two
	// partitions; the nodes' counters must agree with the log's flags.
	if got := twoPCCommits(t, servers); got != float64(2*committedMP) {
		t.Fatalf("nodes committed %.0f 2PC branches for %d flagged calls", got, committedMP)
	}
}

// TestDriveClusterAutoTerm: the stability monitor ends a steady cluster run
// early, exactly as it does a single-node run.
func TestDriveClusterAutoTerm(t *testing.T) {
	m, err := cluster.NewMap("range", 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	spec := workload.Spec{Kind: "micro", Rows: 4096, RowsPerTx: 1}
	_, addrs := startNodes(t, m, spec)
	measure := 20 * time.Second
	rep, err := driver.Run(driver.Config{
		Map:            m,
		Addrs:          addrs,
		Spec:           spec,
		Conns:          2,
		Warmup:         30 * time.Millisecond * raceWindowScale,
		Measure:        measure,
		Seed:           5,
		AutoTerm:       true,
		AutoTermWindow: 200 * time.Millisecond * raceWindowScale,
		AutoTermPct:    50,
	})
	if err != nil {
		t.Fatalf("driver.Run: %v", err)
	}
	if !rep.AutoTerm || rep.Elapsed >= measure/4 || rep.Ops == 0 {
		t.Fatalf("autoterm=%v elapsed=%v ops=%d, want an early stop with ops", rep.AutoTerm, rep.Elapsed, rep.Ops)
	}
}

// TestDriveClusterDrainDuringPrepare: a node that starts draining while
// coordinators run 2PC transactions refuses their branch prepares. Those
// calls are cleanly aborted everywhere and must count as Rejected — the
// typed drain status survives the abort's wrapping — never as errors.
func TestDriveClusterDrainDuringPrepare(t *testing.T) {
	m, err := cluster.NewMap("range", 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	spec := workload.Spec{Kind: "micro", Rows: 4096, RowsPerTx: 1, ReadWrite: true}
	servers, addrs := startNodes(t, m, spec)
	go func() {
		time.Sleep(150 * time.Millisecond * raceWindowScale)
		servers[1].Drain()
	}()
	rep, err := driver.Run(driver.Config{
		Map:     m,
		Addrs:   addrs,
		Spec:    spec,
		Conns:   2,
		MPRate:  100, // every call is a 2PC, so every refusal lands on a prepare
		Warmup:  20 * time.Millisecond * raceWindowScale,
		Measure: 2 * time.Second * raceWindowScale,
		Seed:    6,
	})
	if err != nil {
		t.Fatalf("driver.Run: %v", err)
	}
	if rep.Ops == 0 || rep.Rejected == 0 || rep.Errors != 0 {
		t.Fatalf("ops=%d rejected=%d errors=%d, want ops, rejections and no errors", rep.Ops, rep.Rejected, rep.Errors)
	}
}

// TestDriveClusterRejectsBadConfig pins the config validation surface.
func TestDriveClusterRejectsBadConfig(t *testing.T) {
	m, _ := cluster.NewMap("range", 2, 4)
	if _, err := driver.Run(driver.Config{Map: m, Addrs: []string{"x", "y"}, Pipeline: 8}); err == nil ||
		!strings.Contains(err.Error(), "pipeline") {
		t.Fatalf("pipelined cluster mode: err = %v, want a pipeline refusal", err)
	}
	if _, err := driver.Run(driver.Config{Addr: "x", MPRate: 20}); err == nil {
		t.Fatal("multi-partition rate accepted without a shard map")
	}
	if _, err := driver.RunCluster(driver.ClusterConfig{Addrs: []string{"x"}, Map: m}); err == nil {
		t.Fatal("addr/node count mismatch accepted")
	}
	if _, err := driver.RunCluster(driver.ClusterConfig{
		Addrs: []string{"x", "y"}, Map: m, MPRate: 101,
	}); err == nil {
		t.Fatal("multi-partition rate 101% accepted")
	}
}
