package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"oltpsim/internal/cluster"
	"oltpsim/internal/core"
	"oltpsim/internal/driver"
	"oltpsim/internal/engine"
	"oltpsim/internal/olog"
	"oltpsim/internal/server"
	"oltpsim/internal/systems"
	"oltpsim/internal/workload"
)

// The cluster rung runs two oltpd nodes (VoltDB, micro read-write) with the
// partitions of a hash:2x4 map, so partitions p and p+1 live on different
// nodes. It times the routing client's calls, then drives the nodes with
// driver.RunCluster: two closed-loop coordinators, mpRate percent of calls
// issued as two-branch 2PC transactions.
const (
	mpRate         = 12
	clusterSeconds = 3
)

// startCluster builds, populates and starts the nodes of m.
func startCluster(m *cluster.ShardMap) ([]*server.Server, []string, error) {
	var srvs []*server.Server
	var addrs []string
	for i := 0; i < m.Nodes; i++ {
		s, err := server.New(server.Config{System: systems.VoltDB, Spec: microRWSpec, Cluster: m, Node: i})
		if err == nil {
			err = s.Start("127.0.0.1:0")
		}
		if err != nil {
			for _, p := range srvs {
				p.Shutdown()
			}
			return nil, nil, err
		}
		srvs = append(srvs, s)
		addrs = append(addrs, s.Addr().String())
	}
	return srvs, addrs, nil
}

// rungCluster times cluster.Conn.Exec (single partition, routed) and
// ExecMulti (two-branch 2PC across both nodes), then runs the RunCluster
// phase.
func rungCluster(l *report, o opts, parent int) error {
	m, err := cluster.NewMap("hash", 2, 4)
	if err != nil {
		return err
	}
	srvs, addrs, err := startCluster(m)
	if err != nil {
		return err
	}
	defer func() {
		for _, s := range srvs {
			s.Shutdown()
		}
	}()
	if err := clusterCalls(l, m, srvs, addrs, o.seed); err != nil {
		return err
	}
	return clusterRun(l, o, parent, m, srvs, addrs)
}

func clusterCalls(l *report, m *cluster.ShardMap, srvs []*server.Server, addrs []string, seed uint64) error {
	conn, err := cluster.Dial(cluster.Config{Addrs: addrs, Map: m, Spec: microRWSpec})
	if err != nil {
		return err
	}
	defer conn.Close()
	wl := microRWSpec.New(m.Parts)
	rng := workload.NewRand(seed)
	const n, nMulti = 1000, 200
	var reqs [][]engine.Request
	for p := 0; p < m.Parts; p++ {
		reqs = append(reqs, genCalls(wl, rng, n*(rungReps+1), p, m.Parts))
	}
	snap := func() core.Snapshot {
		var t core.Snapshot
		for _, s := range srvs {
			d := engineSnap(s.Engine())
			t.Instructions += d.Instructions
			t.TxCount += d.TxCount
		}
		return t
	}
	var failed error
	i := 0
	exec := func() {
		for k := 0; k < n && failed == nil; k++ {
			p := i % m.Parts
			r := reqs[p][i/m.Parts]
			i++
			failed = conn.Exec(p, r.Proc, r.Args)
		}
	}
	multi := func() {
		for k := 0; k < nMulti && failed == nil; k++ {
			p := i % m.Parts
			q := (p + 1) % m.Parts // the neighbour lives on the other node
			a, b := reqs[p][i/m.Parts], reqs[q][i/m.Parts]
			i++
			failed = conn.ExecMulti([]cluster.Branch{
				{Part: p, Proc: a.Proc, Args: a.Args},
				{Part: q, Proc: b.Proc, Args: b.Args},
			})
		}
	}
	exec()
	s0 := snap()
	us := perOp(n, exec) / 1e3
	s1 := snap()
	usMulti := perOp(nMulti, multi) / 1e3
	s2 := snap()
	if failed != nil {
		return failed
	}
	l.add("cluster.exec_us", "us", us, rungReps*n)
	l.add("cluster.exec_us.sim_instr", "instr", float64(s1.Instructions-s0.Instructions)/float64(s1.TxCount-s0.TxCount), rungReps*n)
	l.add("cluster.exec_multi_us", "us", usMulti, rungReps*nMulti)
	l.add("cluster.exec_multi_us.sim_instr", "instr", float64(s2.Instructions-s1.Instructions)/float64(rungReps*nMulti), rungReps*nMulti)
	return nil
}

// clusterRun drives the nodes with driver.RunCluster and a request log, and
// splits the logged calls by the multi-partition flag: cluster.mp_ratio is
// the committed 2PC calls over all calls attempted. A clean 2PC abort is a
// definitive answer, not a failure: cluster.2pc_abort_ratio measures it and
// a warning counts it. Every logged call is one coordinator answer. The
// nodes must have admitted one request per single-partition call plus one
// per branch prepare the coordinators sent: each YES vote (the
// oltpd_2pc_prepares_total delta) and, for each aborted call, the one NO
// vote that stopped its prepares. Each committed call commits both its
// branches.
func clusterRun(l *report, o opts, parent int, m *cluster.ShardMap, srvs []*server.Server, addrs []string) error {
	logDir := filepath.Join(buildDir, "reqlogs")
	if err := os.MkdirAll(logDir, 0o755); err != nil {
		return err
	}
	drive := func(pc phaseCfg) (*driver.Report, error) {
		return driver.RunCluster(driver.ClusterConfig{
			Addrs: addrs, Map: m, Spec: microRWSpec, Conns: conns, MPRate: mpRate,
			Warmup: pc.warmup, Measure: pc.measure, Seed: pc.seed, ReqLog: pc.reqlog,
		})
	}
	pr, err := measure(o, parent, phaseCfg{name: "cluster.run", seed: o.seed, warmup: warmSeconds * time.Second,
		measure: clusterSeconds * time.Second, groups: []string{"serving", "twopc"},
		reqlog: filepath.Join(logDir, "cluster.olog")}, srvs, drive)
	if err != nil {
		return fmt.Errorf("cluster run: %w", err)
	}
	// The counts over the whole log (warm-up included) check the nodes'
	// counters; the latencies and ratios use the measured calls only.
	var allSP, allCommit, allAbort, failed int
	var mp, mpAbort int
	var sp, mpLat []float64
	for _, r := range pr.recs {
		switch {
		case r.MultiPart() && r.Status == olog.StatusOK:
			allCommit++
		case r.MultiPart() && r.Status == olog.StatusAbort:
			allAbort++
		case r.MultiPart():
			failed++
		case r.Status == olog.StatusOK:
			allSP++
		default:
			failed++
		}
		switch {
		case !r.Measured():
		case r.MultiPart():
			mp++
			mpLat = append(mpLat, float64(r.Latency()))
			if r.Status == olog.StatusAbort {
				mpAbort++
			}
		default:
			sp = append(sp, float64(r.Latency()))
		}
	}
	l.Attempted += uint64(len(pr.recs))
	l.Failed += uint64(failed)
	if failed > 0 {
		l.problem("cluster run: %d calls failed, were shed or were refused", failed)
	}
	if allAbort > 0 {
		l.warn("cluster run: %d of %d 2PC calls aborted cleanly", allAbort, allCommit+allAbort)
	}
	prepares := pr.delta("oltpd_2pc_prepares_total")
	if want := float64(allSP+allAbort) + prepares; pr.received() != want {
		l.problem("cluster run: the nodes received %.0f requests, the request log and %.0f YES votes account for %.0f",
			pr.received(), prepares, want)
	}
	if commits := pr.delta("oltpd_2pc_commits_total"); commits != float64(2*allCommit) {
		l.problem("cluster run: the nodes committed %.0f 2PC branches for %d committed two-branch calls", commits, allCommit)
	}
	checkDrained(l, "cluster run", pr.dr)
	l.add("cluster.sp_p50_ms", "ms", median(sp)/1e6, len(sp))
	l.add("cluster.mp_p50_ms", "ms", median(mpLat)/1e6, len(mpLat))
	l.add("cluster.mp_ratio", "ratio", float64(mp-mpAbort)/float64(max(len(sp)+mp, 1)), len(sp)+mp)
	l.add("cluster.2pc_abort_ratio", "ratio", float64(mpAbort)/float64(max(mp, 1)), mp)
	return nil
}
