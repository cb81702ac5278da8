package driver

// Cluster mode: the driver pointed at N oltpd processes sharing one shard
// map. Each driver connection is a coordinator owning a cluster.Conn (one
// socket per node): it routes every generated call to the partition's
// owner and turns a configurable fraction of transactional calls into
// two-branch 2PC transactions spanning distinct partitions — the
// multi-partition knob the hardware-islands experiments sweep. The
// coordinator is synchronous, one outstanding transaction per connection,
// and runs under the same loop as a single node: closed or open loop,
// profiles, autoterm, request logs and scenario timelines.

import (
	"errors"
	"strings"
	"time"

	"oltpsim/internal/catalog"
	"oltpsim/internal/cluster"
	"oltpsim/internal/wire"
	"oltpsim/internal/workload"
)

// ClusterConfig shapes a closed-loop cluster driver run; RunCluster runs it
// as a Config with Map set, which also offers open loop, profiles and
// autoterm.
type ClusterConfig struct {
	// Addrs are the oltpd node addresses, indexed by node ID; the length
	// must match Map.Nodes.
	Addrs []string
	// Map is the shard map shared with the servers.
	Map *cluster.ShardMap
	// Spec is the traffic to generate (must match every server's workload).
	Spec workload.Spec
	// Conns is the number of concurrent coordinators (default 4).
	Conns int
	// MPRate is the percentage [0,100] of transactional calls issued as
	// two-branch multi-partition transactions.
	MPRate int
	// Warmup and Measure bound the run (defaults 1s / 3s).
	Warmup, Measure time.Duration
	// Seed drives the deterministic per-connection generators.
	Seed uint64
	// ReqLog, when non-empty, persists one binary olog record per call
	// (multi-partition transactions carry FlagMultiPart) to this path at the
	// end of the run. See internal/olog.
	ReqLog string
}

// RunCluster executes the configured load against the cluster and returns
// the measured report.
func RunCluster(cfg ClusterConfig) (*Report, error) {
	if cfg.Map == nil {
		return nil, errors.New("driver: cluster mode needs a shard map")
	}
	return Run(Config{
		Map:     cfg.Map,
		Addrs:   cfg.Addrs,
		Spec:    cfg.Spec,
		Conns:   cfg.Conns,
		MPRate:  cfg.MPRate,
		Warmup:  cfg.Warmup,
		Measure: cfg.Measure,
		Seed:    cfg.Seed,
		ReqLog:  cfg.ReqLog,
	})
}

// coordinator is the cluster transport: a synchronous routing 2PC
// coordinator.
type coordinator struct {
	cc     *cluster.Conn
	mpRate int             // percent of transactional calls sent as 2PC
	args   []catalog.Value // first branch's arguments, copied out of the generator's buffer
}

func dialCoordinator(cfg Config) (*coordinator, int, error) {
	cc, err := cluster.Dial(cluster.Config{Addrs: cfg.Addrs, Map: cfg.Map, Spec: cfg.Spec})
	if err != nil {
		return nil, 0, err
	}
	return &coordinator{cc: cc, mpRate: cfg.MPRate, args: make([]catalog.Value, 0, 16)}, cfg.Map.Parts, nil
}

func (k *coordinator) close() { k.cc.Close() }

func (k *coordinator) drive(c *conn) {
	defer k.cc.Close()
	for !c.stop.Load() {
		sched, ok := c.arrival()
		if !ok {
			return
		}
		call, sl := c.gen(sched)
		err := k.exec(c, call, &sl)
		st, fatal := outcome(err)
		c.record(&sl, c.now(), st)
		if fatal {
			return // transport failure: the cluster.Conn must not be reused
		}
	}
}

// exec routes one generated call: analytics scatter to every node, MPRate
// percent of the rest become two-branch 2PC transactions, and everything
// else is a single-partition exec on the owning node.
func (k *coordinator) exec(c *conn, call workload.Call, sl *slot) error {
	parts, p := c.shards, int(sl.shard)
	switch {
	case strings.HasPrefix(call.Proc, "olap_"):
		return k.cc.ExecAll(call.Proc, call.Args)
	case parts > 1 && k.mpRate > 0 && c.rng.Intn(100) < k.mpRate:
		// Two-branch 2PC: this call plus a second generated for another
		// partition. Gen recycles its argument buffer, so the first call's
		// args are copied before the second draw.
		k.args = append(k.args[:0], call.Args...)
		pp := (p + 1 + c.rng.Intn(parts-1)) % parts
		c2 := c.wl.Gen(c.rng, pp, parts)
		if strings.HasPrefix(c2.Proc, "olap_") {
			// The second draw came out analytic (hybrid workload): a
			// cross-partition procedure cannot be a 2PC branch, so run the
			// pair as a single-partition exec plus a scatter-gather analytic
			// instead of mis-routing the analytic through 2PC.
			if err := k.cc.Exec(p, call.Proc, k.args); err != nil {
				return err
			}
			return k.cc.ExecAll(c2.Proc, c2.Args)
		}
		sl.multi = true
		return k.cc.ExecMulti([]cluster.Branch{
			{Part: p, Proc: call.Proc, Args: k.args},
			{Part: pp, Proc: c2.Proc, Args: c2.Args},
		})
	default:
		return k.cc.Exec(p, call.Proc, call.Args)
	}
}

// outcome classifies a coordinator call's error by the typed status a
// server answered with. A server answer (an Err frame, found through any
// wrapping) or a clean 2PC abort is a definitive outcome and the
// coordinator carries on; anything else is a transport failure, recorded as
// a failed call that ends the coordinator.
func outcome(err error) (st wire.Status, fatal bool) {
	var we *wire.Error
	switch {
	case err == nil:
		return wire.StatusOK, false
	case errors.As(err, &we):
		return we.Status, false
	case errors.Is(err, cluster.ErrAborted):
		return wire.StatusAbort, false
	}
	return wire.StatusAbort, true
}
