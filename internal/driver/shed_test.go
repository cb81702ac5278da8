package driver

import (
	"path/filepath"
	"testing"
	"time"

	"oltpsim/internal/cluster"
	"oltpsim/internal/olog"
	"oltpsim/internal/server"
	"oltpsim/internal/systems"
	"oltpsim/internal/wire"
	"oltpsim/internal/workload"
)

// liveProbe is a monitor that counts every connection's answers (ops, which
// include errors, plus sheds) at a point late in the measurement window and
// again after the run. A connection whose count moved in between was still
// sending at window end.
type liveProbe struct {
	frac        float64 // where in the measurement window to take the first count
	conns       []*conn
	late, final []uint64
	lateAt      time.Time // when the first count was taken
	endAt       time.Time // nominal window end
	quit, fin   chan struct{}
}

func answered(c *conn) uint64 { return c.ops.Load() + c.shed.Load() }

func (p *liveProbe) start(conns []*conn, base time.Time, warmEnd, end int64) {
	p.conns = conns
	p.endAt = base.Add(time.Duration(end))
	p.quit, p.fin = make(chan struct{}), make(chan struct{})
	at := base.Add(time.Duration(warmEnd + int64(p.frac*float64(end-warmEnd))))
	go func() {
		defer close(p.fin)
		select {
		case <-time.After(time.Until(at)):
			p.lateAt = time.Now()
			for _, c := range conns {
				p.late = append(p.late, answered(c))
			}
		case <-p.quit:
		}
	}()
}

func (p *liveProbe) stop() {
	close(p.quit)
	<-p.fin
	for _, c := range p.conns {
		p.final = append(p.final, answered(c))
	}
}

// TestDriveClusterShed drives cluster coordinators into a node whose
// admission control sheds almost everything (a queue bound of 1 under 16
// connections). A shed is a verdict about one request, so every coordinator
// must keep sending to the end of the window, and sheds must be accounted
// exactly as the single-node driver does: counted in Shed, absent from Ops,
// Errors and the latency histogram. A second run points the coordinators at
// a node that owns only one of the map's two partitions: every call to the
// other partition is answered with a failure status, which must count as an
// error without ending a coordinator either.
func TestDriveClusterShed(t *testing.T) {
	spec := workload.Spec{Kind: "micro", Rows: 4096, RowsPerTx: 1}
	oneNode, err := cluster.NewMap("range", 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	twoNode, err := cluster.NewMap("range", 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name      string
		serverMap *cluster.ShardMap // the map the node serves; the driver always uses oneNode
	}{
		{"shed", oneNode},
		{"errors", twoNode},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := server.New(server.Config{
				System:        systems.VoltDB,
				Spec:          spec,
				Cluster:       tc.serverMap,
				AdmitQueueMax: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Start("127.0.0.1:0"); err != nil {
				t.Fatal(err)
			}
			defer s.Shutdown()

			path := filepath.Join(t.TempDir(), "run.olog")
			probe := &liveProbe{frac: 0.7}
			const conns = 16
			rep, err := run(Config{
				Map:     oneNode,
				Addrs:   []string{s.Addr().String()},
				Spec:    spec,
				Conns:   conns,
				Warmup:  100 * time.Millisecond,
				Measure: time.Second,
				Seed:    7,
				ReqLog:  path,
			}, probe)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if probe.late == nil {
				t.Fatal("the run ended before the probe's late count: every coordinator stopped early")
			}
			if !probe.lateAt.Before(probe.endAt) {
				t.Fatalf("probe sampled at %v, after the window end %v", probe.lateAt, probe.endAt)
			}
			for i := range probe.late {
				if probe.final[i] == probe.late[i] {
					t.Errorf("coordinator %d answered nothing in the last 30%% of the window (%d answers)", i, probe.final[i])
				}
			}
			if rep.Shed == 0 {
				t.Error("no sheds counted under a queue bound of 1 with 16 coordinators")
			}
			if rep.Ops == 0 {
				t.Error("no ops measured")
			}
			if tc.name == "errors" && rep.Errors == 0 {
				t.Error("no errors counted for calls to a partition the node does not own")
			}
			if tc.name == "shed" && rep.Errors != 0 {
				t.Errorf("%d errors: sheds leaked into Errors", rep.Errors)
			}
			if rep.Hist.Count() != rep.Ops {
				t.Errorf("histogram holds %d samples for %d ops", rep.Hist.Count(), rep.Ops)
			}
			if rep.Covered < 0.99 {
				t.Errorf("Covered = %.3f, want the full window", rep.Covered)
			}

			_, recs, err := olog.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var ok, aborted, shed uint64
			for _, r := range recs {
				if !r.Measured() {
					continue
				}
				switch r.Status {
				case wire.StatusOK:
					ok++
				case wire.StatusAbort:
					aborted++
				case wire.StatusOverload:
					shed++
				default:
					t.Fatalf("unexpected status %v in the log", r.Status)
				}
			}
			if ok+aborted != rep.Ops || aborted != rep.Errors || shed != rep.Shed {
				t.Errorf("log has %d ok, %d aborted, %d shed; report has %d ops, %d errors, %d shed",
					ok, aborted, shed, rep.Ops, rep.Errors, rep.Shed)
			}
		})
	}
}
