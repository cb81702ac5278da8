package driver

import (
	"bufio"
	"net"
	"sync/atomic"
	"time"

	"oltpsim/internal/wire"
)

// pipeConn is the single-node transport: one socket with up to Pipeline
// requests in flight, a sender goroutine generating and encoding traffic,
// and a reader goroutine matching responses by request ID.
type pipeConn struct {
	nc  net.Conn
	br  *bufio.Reader
	ids []uint32 // server procedure IDs, indexed like Spec.ProcNames()

	wbuf wire.Buffer
	ring []slot
	// tokens carries free slot indexes: a slot is exclusively owned from the
	// moment the sender receives its index until the reader finishes with
	// the matching response and returns it. Responses may complete out of
	// order across shards, so slots cannot simply be reqID mod window — the
	// free-list is what prevents a live slot from being overwritten (and the
	// channel hand-off is the happens-before edge between the two
	// goroutines' accesses to the slot). tokens is never closed — a sender
	// that took a slot and then stopped can always hand it back; done (closed
	// by the reader on exit) is what wakes a sender blocked on an empty
	// free list.
	tokens   chan int
	done     chan struct{}
	inflight atomic.Int64
}

// dialPipe connects, runs the wire handshake (verifying the workload spec)
// and prepares every procedure the generator can emit.
func dialPipe(cfg Config) (*pipeConn, int, error) {
	nc, err := net.Dial("tcp", cfg.Addr)
	if err != nil {
		return nil, 0, err
	}
	t := &pipeConn{
		nc:     nc,
		br:     bufio.NewReaderSize(nc, 64<<10),
		ring:   make([]slot, cfg.Pipeline),
		tokens: make(chan int, cfg.Pipeline),
		done:   make(chan struct{}),
	}
	shards, ids, err := wire.Handshake(t.br, nc, cfg.Spec.String(), cfg.Spec.ProcNames())
	if err != nil {
		nc.Close()
		return nil, 0, err
	}
	t.ids = ids
	for i := range t.ring {
		t.tokens <- i
	}
	return t, shards, nil
}

func (t *pipeConn) close() { t.nc.Close() }

func (t *pipeConn) drive(c *conn) {
	read := make(chan struct{})
	go func() { defer close(read); t.readLoop(c) }()
	t.sendLoop(c)
	<-read
}

// sendLoop generates and sends requests until the measurement window ends
// (or the server starts draining), then waits out the in-flight tail and
// closes the socket to release the reader.
func (t *pipeConn) sendLoop(c *conn) {
	defer t.finish(c)
	for !c.stop.Load() {
		sched, ok := c.arrival()
		if !ok {
			return
		}
		var id int
		select {
		case id = <-t.tokens: // in-flight cap (and the closed-loop pacing itself)
		case <-t.done:
			return
		}
		if c.stop.Load() {
			// Stopped after winning the slot: hand the token back so finish()
			// can account for the whole free list and drain cleanly instead of
			// leaning on its deadline. Never blocks — we hold the only claim
			// on this token and capacity equals the slot count.
			t.tokens <- id
			return
		}

		call, sl := c.gen(sched)
		t.ring[id] = sl

		t.wbuf.Reset(wire.MsgExec)
		t.wbuf.U32(uint32(id)) // request ID = the owned slot index
		t.wbuf.U32(t.ids[sl.proc])
		t.wbuf.U16(sl.shard)
		t.wbuf.Args(call.Args)
		t.inflight.Add(1)
		if _, err := t.nc.Write(t.wbuf.Bytes()); err != nil {
			c.stop.Store(true)
			return
		}
	}
}

// finish reclaims the in-flight tail (bounded) and closes the socket. A
// deadline firing means tokens went missing or the server sat on responses —
// it is recorded in dirty and surfaces as Report.DirtyDrains.
func (t *pipeConn) finish(c *conn) {
	defer t.nc.Close()
	deadline := time.NewTimer(5 * time.Second)
	defer deadline.Stop()
	for t.inflight.Load() > 0 {
		select {
		case <-t.tokens:
		case <-t.done:
			// Reader gone (socket error or drain): the in-flight tail is
			// forfeited, nothing more will arrive.
			return
		case <-deadline.C:
			c.dirty.Store(true)
			return
		}
	}
}

// readLoop consumes responses, records them, and returns tokens to the
// sender. An Err frame's status byte is all it decodes: a shed response
// allocates nothing.
func (t *pipeConn) readLoop(c *conn) {
	defer close(t.done) // wake and stop a sender blocked on a slot
	var frame []byte
	for {
		typ, payload, f, err := wire.ReadFrame(t.br, frame)
		if err != nil {
			c.stop.Store(true)
			return
		}
		frame = f
		r := wire.NewReader(payload)
		id := r.U32()
		st := wire.StatusOK
		if typ == wire.MsgErr {
			st = r.Status()
		}
		if r.Err != nil || int(id) >= len(t.ring) {
			c.stop.Store(true)
			return // truncated frame or corrupt response ID
		}
		c.record(&t.ring[id], c.now(), st)
		t.inflight.Add(-1)
		t.tokens <- int(id) // return the slot (never blocks: capacity = window)
	}
}
