package cluster

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync/atomic"
	"time"

	"oltpsim/internal/catalog"
	"oltpsim/internal/wire"
	"oltpsim/internal/workload"
)

// ErrAborted marks a multi-partition transaction that aborted cleanly: a NO
// vote, an injected abort, or a coordinator timeout. The client got a
// definitive answer — nothing was installed anywhere.
var ErrAborted = errors.New("cluster: transaction aborted")

// gtidSeq numbers global transactions within this process. Uniqueness only
// matters per partition per prepared window (a partition holds at most one
// prepared branch at a time), so a process-local counter suffices.
var gtidSeq atomic.Uint64

// Config shapes a routing client connection set.
type Config struct {
	// Addrs lists the oltpd nodes, indexed by node ID (must match Map.Nodes).
	Addrs []string
	// Map is the shard map shared with the servers.
	Map *ShardMap
	// Spec is the workload both sides agreed on (verified against each
	// node's Hello).
	Spec workload.Spec
	// VoteTimeout bounds the wait for each participant's vote (default 5s);
	// a timeout aborts the transaction. It must be comfortably below the
	// servers' participant decision timeout so a slow coordinator aborts
	// before participants presume abort on their own.
	VoteTimeout time.Duration
	// AckTimeout bounds every other synchronous read (default 15s).
	AckTimeout time.Duration
}

// Faults are deterministic coordinator-side fault-injection hooks, consulted
// mid-protocol by ExecMulti. Nil hooks are never consulted. They exist for
// the 2PC test battery; production paths leave them nil.
type Faults struct {
	// AbortAtPrepare, when true for (gtid, branch), aborts the transaction
	// instead of sending that branch's PREPARE2PC (earlier branches are
	// already prepared and get ABORT2PC).
	AbortAtPrepare func(gtid uint64, branch int) bool
	// AbortAfterVotes, when true, aborts after every participant voted YES,
	// exercising the window between prepare and commit.
	AbortAfterVotes func(gtid uint64) bool
	// DropDecision, when true, decides abort but tells no participant:
	// participants must resolve via their decision timeout.
	DropDecision func(gtid uint64) bool
	// SkipCommitAck, when true for (gtid, branch), does not wait for that
	// branch's commit ack (the ack arrives later as a stray and is skipped).
	SkipCommitAck func(gtid uint64, branch int) bool
}

// Branch is one single-partition fragment of a multi-partition transaction.
type Branch struct {
	Part int
	Proc string
	Args []catalog.Value
}

// Conn is a routing client over one socket per node. Not safe for
// concurrent use — each load-generator worker owns one Conn, mirroring the
// driver's one-transport-per-connection shape.
type Conn struct {
	cfg    Config
	nodes  []*nodeConn
	Faults Faults

	// MultiPart counts committed multi-partition transactions (readable
	// after a run; the driver aggregates it into its report).
	MultiPart uint64
}

// nodeConn is the per-node socket state.
type nodeConn struct {
	addr   string
	nc     net.Conn
	br     *bufio.Reader
	wbuf   wire.Buffer
	frame  []byte
	reqSeq uint32
	procID map[string]uint32

	// pending holds responses that arrived ahead of the one being awaited.
	// When both branches of a 2PC live on one node, their shard workers ack
	// the decision independently, so acks legitimately arrive out of order.
	pending map[uint32]savedResp
	// strayIDs are responses deliberately never awaited (SkipCommitAck);
	// they are dropped on arrival instead of buffered.
	strayIDs map[uint32]bool
}

// savedResp is a buffered out-of-order response (payload copied out of the
// reused frame buffer, positioned after the request ID).
type savedResp struct {
	typ     byte
	payload []byte
}

// Dial connects to every node, verifies each Hello against the shard map
// and workload spec, and prepares every procedure the generator can emit.
func Dial(cfg Config) (*Conn, error) {
	if cfg.Map == nil {
		return nil, fmt.Errorf("cluster: nil shard map")
	}
	if len(cfg.Addrs) != cfg.Map.Nodes {
		return nil, fmt.Errorf("cluster: %d addrs for a %d-node map", len(cfg.Addrs), cfg.Map.Nodes)
	}
	if cfg.VoteTimeout <= 0 {
		cfg.VoteTimeout = 5 * time.Second
	}
	if cfg.AckTimeout <= 0 {
		cfg.AckTimeout = 15 * time.Second
	}
	c := &Conn{cfg: cfg, nodes: make([]*nodeConn, len(cfg.Addrs))}
	for i, addr := range cfg.Addrs {
		n, err := dialNode(cfg, addr)
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("cluster: node %d (%s): %w", i, addr, err)
		}
		c.nodes[i] = n
	}
	return c, nil
}

func dialNode(cfg Config, addr string) (*nodeConn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	n := &nodeConn{
		addr:     addr,
		nc:       nc,
		br:       bufio.NewReaderSize(nc, 64<<10),
		procID:   make(map[string]uint32),
		pending:  make(map[uint32]savedResp),
		strayIDs: make(map[uint32]bool),
	}
	procs := cfg.Spec.ProcNames()
	shards, ids, err := wire.Handshake(n.br, nc, cfg.Spec.String(), procs)
	if err == nil && shards != cfg.Map.Parts {
		err = fmt.Errorf("shard-map mismatch: server has %d partitions, map says %d", shards, cfg.Map.Parts)
	}
	if err != nil {
		nc.Close()
		return nil, err
	}
	for i, name := range procs {
		n.procID[name] = ids[i]
	}
	return n, nil
}

// Close tears every node socket down.
func (c *Conn) Close() {
	for _, n := range c.nodes {
		if n != nil {
			n.nc.Close()
		}
	}
}

// Nodes returns the node count.
func (c *Conn) Nodes() int { return len(c.nodes) }

// readResponse reads frames until one carries reqID, enforcing the deadline.
// Responses for other outstanding requests of this connection (same-node 2PC
// branches ack independently, so ordering is not guaranteed) are buffered;
// deliberately unawaited responses (SkipCommitAck) are dropped on arrival.
func (n *nodeConn) readResponse(reqID uint32, deadline time.Duration) (typ byte, r wire.Reader, err error) {
	if saved, ok := n.pending[reqID]; ok {
		delete(n.pending, reqID)
		return saved.typ, wire.NewReader(saved.payload), nil
	}
	for {
		n.nc.SetReadDeadline(time.Now().Add(deadline))
		var payload []byte
		typ, payload, n.frame, err = wire.ReadFrame(n.br, n.frame)
		if err != nil {
			return 0, wire.Reader{}, err
		}
		r = wire.NewReader(payload)
		id := r.U32()
		if id == reqID {
			n.nc.SetReadDeadline(time.Time{})
			return typ, r, nil
		}
		if n.strayIDs[id] {
			delete(n.strayIDs, id)
			continue
		}
		n.pending[id] = savedResp{typ: typ, payload: append([]byte(nil), payload[4:]...)}
	}
}

// decodeAck turns an OK/Err response into an error (a *wire.Error for an
// Err frame).
func decodeAck(typ byte, r wire.Reader) error {
	switch typ {
	case wire.MsgOK:
		return nil
	case wire.MsgErr:
		return wire.DecodeErr(&r)
	default:
		return fmt.Errorf("cluster: unexpected frame %#x", typ)
	}
}

// Exec routes one single-partition call to the partition's owning node and
// waits for its result. A server's Err answer comes back as a *wire.Error
// carrying its status; any other error is a transport failure.
func (c *Conn) Exec(part int, proc string, args []catalog.Value) error {
	n := c.nodes[c.cfg.Map.Owner(part)]
	return n.exec(part, proc, args, c.cfg.AckTimeout)
}

func (n *nodeConn) exec(part int, proc string, args []catalog.Value, deadline time.Duration) error {
	procID, ok := n.procID[proc]
	if !ok {
		return fmt.Errorf("cluster: unprepared procedure %q", proc)
	}
	n.reqSeq++
	id := n.reqSeq
	n.wbuf.Reset(wire.MsgExec)
	n.wbuf.U32(id)
	n.wbuf.U32(procID)
	n.wbuf.U16(uint16(part))
	n.wbuf.Args(args)
	if _, err := n.nc.Write(n.wbuf.Bytes()); err != nil {
		return err
	}
	typ, r, err := n.readResponse(id, deadline)
	if err != nil {
		return err
	}
	return decodeAck(typ, r)
}

// ExecAll runs one call on EVERY node, each on its first owned partition —
// the scatter phase for cross-partition analytics: each node scans the
// shards it stores, and the caller merges the per-node results it captures
// out of band (the wire protocol carries no result payloads).
func (c *Conn) ExecAll(proc string, args []catalog.Value) error {
	for node := range c.nodes {
		part := c.firstOwned(node)
		if err := c.nodes[node].exec(part, proc, args, c.cfg.AckTimeout); err != nil {
			return fmt.Errorf("cluster: node %d: %w", node, err)
		}
	}
	return nil
}

func (c *Conn) firstOwned(node int) int {
	for p := 0; p < c.cfg.Map.Parts; p++ {
		if c.cfg.Map.Owner(p) == node {
			return p
		}
	}
	panic(fmt.Sprintf("cluster: node %d owns no partition", node))
}

// ExecMulti runs a multi-partition transaction as two-phase commit over its
// single-partition branches: prepares in ascending partition order (global
// ordered acquisition — no distributed deadlock), commits on unanimous YES,
// aborts on any NO vote, vote timeout, transport error or injected fault.
// nil means committed everywhere; an error wrapping ErrAborted means cleanly
// aborted everywhere (both are definitive answers). When a participant
// refused its prepare with an Err frame (draining, shed), the error also
// wraps that *wire.Error, so errors.As recovers the refusal's status. A
// rejected decision wraps the participant's *wire.Error too. Any other
// error is a transport failure, after which the Conn must not be reused.
func (c *Conn) ExecMulti(branches []Branch) error {
	if len(branches) == 0 {
		return nil
	}
	ordered := make([]Branch, len(branches))
	copy(ordered, branches)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].Part < ordered[j].Part })
	for i := 1; i < len(ordered); i++ {
		if ordered[i].Part == ordered[i-1].Part {
			return fmt.Errorf("cluster: multi-partition branches share partition %d", ordered[i].Part)
		}
	}
	gtid := gtidSeq.Add(1)

	// Phase 1: prepare in ascending partition order.
	prepared := 0 // branches with a YES vote retained server-side
	var reason error
	for i := range ordered {
		b := &ordered[i]
		if f := c.Faults.AbortAtPrepare; f != nil && f(gtid, i) {
			reason = fmt.Errorf("injected abort at prepare of branch %d", i)
			break
		}
		n := c.nodes[c.cfg.Map.Owner(b.Part)]
		vote, err := n.prepare2PC(gtid, b, c.cfg.VoteTimeout)
		if err != nil {
			// Transport failure mid-prepare: abort what is prepared and
			// surface the transport error (not a clean abort).
			c.decide(gtid, ordered[:prepared], false, nil)
			return fmt.Errorf("cluster: prepare branch %d (partition %d): %w", i, b.Part, err)
		}
		if vote != nil {
			reason = fmt.Errorf("branch %d (partition %d) voted no: %w", i, b.Part, vote)
			break
		}
		prepared++
	}

	commit := reason == nil
	if commit {
		if f := c.Faults.AbortAfterVotes; f != nil && f(gtid) {
			commit = false
			reason = errors.New("injected abort between prepare and commit")
		}
	}
	if f := c.Faults.DropDecision; f != nil && f(gtid) {
		// Decide abort, tell no one: participants resolve via their decision
		// timeout. Still a definitive answer for the client.
		return fmt.Errorf("cluster: %w: decision dropped (injected)", ErrAborted)
	}
	if err := c.decide(gtid, ordered[:prepared], commit, c.Faults.SkipCommitAck); err != nil {
		return err
	}
	if !commit {
		return fmt.Errorf("cluster: %w: %w", ErrAborted, reason)
	}
	c.MultiPart++
	return nil
}

// prepare2PC sends one branch's PREPARE2PC and waits for its vote. A nil
// vote error with nil err is a YES; a non-nil vote error is a NO (with the
// participant's reason); err is a transport failure.
func (n *nodeConn) prepare2PC(gtid uint64, b *Branch, deadline time.Duration) (vote error, err error) {
	procID, ok := n.procID[b.Proc]
	if !ok {
		return fmt.Errorf("cluster: unprepared procedure %q", b.Proc), nil
	}
	n.reqSeq++
	id := n.reqSeq
	n.wbuf.Reset(wire.MsgPrepare2PC)
	n.wbuf.U32(id)
	n.wbuf.U64(gtid)
	n.wbuf.U32(procID)
	n.wbuf.U16(uint16(b.Part))
	n.wbuf.Args(b.Args)
	if _, err := n.nc.Write(n.wbuf.Bytes()); err != nil {
		return nil, err
	}
	typ, r, err := n.readResponse(id, deadline)
	if err != nil {
		return nil, err
	}
	switch typ {
	case wire.MsgVote:
		yes := r.U8() != 0
		if yes {
			return nil, r.Err
		}
		msg := r.Str()
		if r.Err != nil {
			return nil, r.Err
		}
		return errors.New(msg), nil
	case wire.MsgErr:
		// Admission-level refusal (draining, shed, not owned): nothing
		// retained. The vote carries the typed *wire.Error.
		vote = wire.DecodeErr(&r)
		if r.Err != nil {
			return nil, r.Err
		}
		return vote, nil
	default:
		return nil, fmt.Errorf("cluster: unexpected frame %#x awaiting vote", typ)
	}
}

// decide sends the decision to every prepared branch, then collects acks
// (except branches skipAck selects, whose acks are recorded as strays).
func (c *Conn) decide(gtid uint64, prepared []Branch, commit bool, skipAck func(uint64, int) bool) error {
	type sent struct {
		n  *nodeConn
		id uint32
	}
	acks := make([]sent, 0, len(prepared))
	msg := byte(wire.MsgAbort2PC)
	if commit {
		msg = wire.MsgCommit2PC
	}
	for i := range prepared {
		b := &prepared[i]
		n := c.nodes[c.cfg.Map.Owner(b.Part)]
		n.reqSeq++
		id := n.reqSeq
		n.wbuf.Reset(msg)
		n.wbuf.U32(id)
		n.wbuf.U64(gtid)
		n.wbuf.U16(uint16(b.Part))
		if _, err := n.nc.Write(n.wbuf.Bytes()); err != nil {
			return fmt.Errorf("cluster: sending decision for partition %d: %w", b.Part, err)
		}
		if skipAck != nil && skipAck(gtid, i) {
			n.strayIDs[id] = true
			continue
		}
		acks = append(acks, sent{n, id})
	}
	for _, a := range acks {
		typ, r, err := a.n.readResponse(a.id, c.cfg.AckTimeout)
		if err != nil {
			return fmt.Errorf("cluster: reading decision ack: %w", err)
		}
		if err := decodeAck(typ, r); err != nil {
			return fmt.Errorf("cluster: decision rejected: %w", err)
		}
	}
	return nil
}
