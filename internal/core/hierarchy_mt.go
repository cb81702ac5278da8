package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"oltpsim/internal/simmem"
)

// This file is the concurrent-execution variant of the hierarchy paths: with
// SetConcurrent(true), DataAccess and FetchCode may be called for different
// cores from different goroutines at the same time, which is how the serving
// path generates cross-core coherence traffic from *actual* concurrent access
// instead of serialized turns.
//
// Synchronization discipline:
//
//   - A core's private caches (l1i/l1d/l2), its MissCounts entry and its
//     deferred-op buffers are only ever touched by the goroutine driving that
//     core (and by Quiesce while every core is stopped) — they stay
//     unsynchronized, like per-CPU hardware counters.
//   - Each socket's shared state is split into llcStripes lock stripes by LLC
//     set index: stripe k guards the LLC sets whose index is k modulo
//     llcStripes, and the directory entries of the lines mapping to those
//     sets. Sets are independent in the model, so the stripes share the
//     socket's one LLC (one tag array, the serial indexing) without racing.
//     Stripe locks are never nested: the access path releases its own
//     socket's stripe before probing or invalidating a remote one, and takes
//     at most one stripe per simulated line on the common path.
//   - LLC fills from the next-line instruction prefetcher, and the directory
//     clears for lines that left a core's private caches, do not take a lock
//     when they happen. Each core queues them per stripe in a fixed buffer and
//     applies the buffer the next time it takes that stripe for any reason,
//     when the buffer fills, and in Quiesce. Ordering rule: per core and per
//     LLC set, operations apply in program order; only the interleaving
//     across cores changes, and that is nondeterministic anyway. A deferred
//     clear leaves the core's directory bit set for a while after its copy
//     left; a writer that sees the stale bit posts an invalidation that finds
//     nothing to invalidate (and, across sockets, is charged as a transfer),
//     the same as a copy evicted while the invalidation was in flight.
//   - Writers never touch another core's private caches (the serial path
//     does, in invalidateSocket). Instead they post the line to the victim
//     core's invalidation inbox; the victim drains its inbox at the start of
//     its next data access, invalidating its own copies and deferring the
//     clear of its own directory bits. Inbox locks are leaves: an enqueuer
//     holds a stripe lock while taking one, and a drain takes none while it
//     holds its inbox lock. An atomic count lets a drain skip an empty inbox
//     without locking it.
//
// The cost model consequence: invalidations become visible to the victim at
// its next access rather than instantly (a message-passing approximation of
// the real protocol's asynchrony), and per-cache Invalidations are credited
// to the core that *loses* the line rather than the writer. Directory and
// caches may disagree transiently mid-run; after Quiesce they agree exactly
// again, which is what CheckCoherent verifies and the concurrent race-hammer
// tests assert. A single active core in concurrent mode produces exactly the
// serial mode's counters, stalls, LLC contents and directory. Cross-core
// totals remain conserved in both modes: every (line, cache) invalidation
// event increments exactly one core's counter.

const (
	// llcStripes is the number of lock stripes per socket (a power of two,
	// so the stripe of a set is a mask of its index).
	llcStripes    = 64
	llcStripeMask = llcStripes - 1
	// pendCap is the capacity of one core's deferred-op buffer for one
	// stripe; a full buffer is applied at once.
	pendCap = 16
	// pendDirClear marks a deferred op as a clear of the owning core's
	// directory bit; unmarked ops are LLC fills. Line IDs are addresses
	// shifted by LineShift, so the top bit is free.
	pendDirClear = uint64(1) << 63
)

// llcStripe is one lock stripe of a socket's shared state. llc and dir are
// the socket's single LLC and directory (dir is nil without coherence);
// through a stripe only the sets, and the lines, of that stripe may be
// touched.
type llcStripe struct {
	mu  sync.Mutex
	llc *Cache     //oltpsim:guarded-by mu
	dir *directory //oltpsim:guarded-by mu
	// Pad to one 64-byte cache line, so that cores taking different stripes
	// do not contend on the line holding the locks.
	_ [64 - 24]byte
}

// pendBuf is one core's deferred ops for one stripe of its socket, oldest
// first.
type pendBuf struct {
	n   int
	ops [pendCap]uint64
}

// invQueue is one core's pending-invalidation inbox.
type invQueue struct {
	mu      sync.Mutex
	pending []uint64 //oltpsim:guarded-by mu
	// n mirrors len(pending), so the owner skips an empty inbox lock-free.
	n atomic.Int32
	// draining is the owner core's swap buffer: only the owning core's
	// goroutine touches it, outside the lock.
	draining []uint64
}

// hierMT is the synchronization state of concurrent mode; nil while the
// hierarchy is in (serialized) single-goroutine mode.
type hierMT struct {
	stripes []llcStripe           // socket s's stripe k at s*llcStripes+k
	pend    [][llcStripes]pendBuf // per core, for its own socket's stripes
	inq     []invQueue            // one per core
}

// stripe returns stripe k of socket s.
func (mt *hierMT) stripe(s, k int) *llcStripe { return &mt.stripes[s*llcStripes+k] }

// settle applies core's deferred ops for stripe k of its socket, st.
//
//oltpsim:holds mu
func (mt *hierMT) settle(core, k int, st *llcStripe) {
	if b := &mt.pend[core][k]; b.n != 0 {
		st.apply(core, b)
	}
}

// apply performs core's deferred ops in b, oldest first, and empties b.
//
//oltpsim:holds mu
func (st *llcStripe) apply(core int, b *pendBuf) {
	bit := uint64(1) << uint(core)
	for _, op := range b.ops[:b.n] {
		if op&pendDirClear == 0 {
			st.llc.FillQuiet(op)
			continue
		}
		st.dir.clear(op&^pendDirClear, bit)
	}
	b.n = 0
}

// SetConcurrent switches the hierarchy between the serialized single-
// goroutine mode (the harness default; byte-identical to the historical
// paths) and the concurrent mode described above. It must be called while no
// accesses are in flight. Leaving concurrent mode drains every inbox and
// deferred buffer so the directory and caches agree again.
func (h *Hierarchy) SetConcurrent(on bool) {
	if !on {
		h.Quiesce()
		h.mt = nil
		return
	}
	if h.mt != nil {
		return
	}
	mt := &hierMT{
		stripes: make([]llcStripe, h.nSock*llcStripes),
		pend:    make([][llcStripes]pendBuf, len(h.cores)),
		inq:     make([]invQueue, len(h.cores)),
	}
	for s := 0; s < h.nSock; s++ {
		var dir *directory
		if h.dirs != nil {
			dir = h.dirs[s]
		}
		for k := 0; k < llcStripes; k++ {
			mt.stripes[s*llcStripes+k] = llcStripe{llc: h.llcs[s], dir: dir}
		}
	}
	h.mt = mt
}

// Concurrent reports whether the hierarchy is in concurrent mode.
func (h *Hierarchy) Concurrent() bool { return h.mt != nil }

// stripeOf returns the lock stripe of line id: its LLC set index modulo
// llcStripes (every socket's LLC has the same geometry).
func (h *Hierarchy) stripeOf(id uint64) int { return h.llcs[0].setIndex(id) & llcStripeMask }

// deferOp queues op (an LLC fill, or a directory clear tagged pendDirClear)
// on core's buffer for the op's stripe. The caller holds no stripe lock: a
// buffer that fills is applied at once.
func (h *Hierarchy) deferOp(core, s int, op uint64) {
	k := h.stripeOf(op &^ pendDirClear)
	b := &h.mt.pend[core][k]
	b.ops[b.n] = op
	b.n++
	if b.n == pendCap {
		h.flushStripe(core, s, k)
	}
}

// flushStripe applies core's deferred ops for stripe k of its socket s.
func (h *Hierarchy) flushStripe(core, s, k int) {
	st := h.mt.stripe(s, k)
	st.mu.Lock()
	st.apply(core, &h.mt.pend[core][k])
	st.mu.Unlock()
}

// postInvalidations enqueues line id to the inbox of every socket-t core
// named in mask except skip. Caller holds the line's stripe of socket t;
// inbox locks are leaf locks under stripe locks.
func (h *Hierarchy) postInvalidations(t int, id uint64, mask uint64, skip int) {
	lo, hi := h.socketRange(t)
	for other := lo; other < hi; other++ {
		if other == skip || mask&(uint64(1)<<uint(other)) == 0 {
			continue
		}
		q := &h.mt.inq[other]
		q.mu.Lock()
		q.pending = append(q.pending, id)
		q.n.Add(1)
		q.mu.Unlock()
	}
}

// drainInvalidations applies core's pending invalidations to its own private
// caches and defers the clears of its directory bits. Called by the owning
// core's goroutine (or by Quiesce while the cores are stopped).
func (h *Hierarchy) drainInvalidations(core int) {
	q := &h.mt.inq[core]
	if q.n.Load() == 0 {
		return
	}
	q.mu.Lock()
	q.pending, q.draining = q.draining[:0], q.pending
	q.n.Store(0)
	q.mu.Unlock()

	cc := &h.cores[core]
	ct := &h.counts[core]
	s := h.sockOf[core]
	for _, id := range q.draining {
		if cc.l1d.Invalidate(id) {
			ct.Invalidations++
		}
		if cc.l2.Invalidate(id) {
			ct.Invalidations++
		}
		h.deferOp(core, s, id|pendDirClear)
	}
}

// Quiesce drains every core's invalidation inbox and applies every deferred
// op. In concurrent mode it must be called with all cores stopped (the
// engine's Observe path holds every per-core lock); it restores exact
// directory/cache agreement and the LLC contents the cores' accesses imply.
// A no-op in serialized mode.
func (h *Hierarchy) Quiesce() {
	if h.mt == nil {
		return
	}
	for c := range h.cores {
		h.drainInvalidations(c)
		for k := range h.mt.pend[c] {
			if h.mt.pend[c][k].n != 0 {
				h.flushStripe(c, h.sockOf[c], k)
			}
		}
	}
}

// dataAccessMT is the concurrent-mode body of DataAccess. Counter semantics
// match the serial path except that per-cache Invalidations are credited to
// the victim core at drain time (see the file comment). An L1D miss takes
// one stripe lock (two or more only for a cross-socket write or an LLC miss
// probing remote sockets).
//
//oltpsim:hotpath
func (h *Hierarchy) dataAccessMT(core int, addr simmem.Addr, size int, write bool) int {
	cc := &h.cores[core]
	ct := &h.counts[core]
	s := h.sockOf[core]
	mt := h.mt
	h.drainInvalidations(core)
	stall := 0
	first := uint64(addr) >> LineShift
	last := (uint64(addr) + uint64(size) - 1) >> LineShift
	for id := first; id <= last; id++ {
		ct.L1DAcc++
		k := h.stripeOf(id)
		st := mt.stripe(s, k)
		if write {
			if h.dirs != nil {
				self := uint64(1) << uint(core)
				x1 := dropped(cc.l1d.FillQuietEvict(id), cc.l2)
				x2 := dropped(cc.l2.FillQuietEvict(id), cc.l1d)
				st.mu.Lock()
				mt.settle(core, k, st)
				if mask := st.dir.get(id); mask&^self != 0 {
					h.postInvalidations(s, id, mask, core)
				}
				st.llc.FillQuiet(id)
				st.dir.set(id, self)
				st.mu.Unlock()
				h.deferDropped(core, s, x1, x2)
				// Remote sockets: invalidate their LLC copy and post to their
				// cores' inboxes; the ownership transfer stalls the writer.
				// Each remote stripe is locked on its own, never nested.
				if h.nSock > 1 {
					for t := 0; t < h.nSock; t++ {
						if t == s {
							continue
						}
						rt := mt.stripe(t, k)
						rt.mu.Lock()
						rmask := rt.dir.get(id)
						inLLC := rt.llc.Invalidate(id)
						if rmask != 0 {
							h.postInvalidations(t, id, rmask, -1)
							rt.dir.set(id, 0)
						}
						rt.mu.Unlock()
						if rmask != 0 || inLLC {
							ct.XInvalidations++
							stall += h.cfg.XInvalidatePenalty
						}
					}
				}
				continue
			}
			cc.l1d.FillQuiet(id)
			cc.l2.FillQuiet(id)
			st.mu.Lock()
			mt.settle(core, k, st)
			st.llc.FillQuiet(id)
			st.mu.Unlock()
			continue
		}
		if h.dirs == nil {
			if cc.l1d.Access(id, ClassData) {
				continue
			}
			ct.L1DMiss++
			stall += h.cfg.L1D.MissPenalty
			if !cc.l2.Access(id, ClassData) {
				ct.L2DMiss++
				stall += h.cfg.L2.MissPenalty
				st.mu.Lock()
				mt.settle(core, k, st)
				hit := st.llc.Access(id, ClassData)
				st.mu.Unlock()
				if !hit {
					ct.LLCDMiss++
					stall += h.serveDataMissMT(s, k, id, ct)
				}
			}
			continue
		}
		hit, ev := cc.l1d.AccessEvict(id, ClassData)
		if hit {
			continue // ev is 0 on a hit; the directory bit is already set
		}
		ct.L1DMiss++
		stall += h.cfg.L1D.MissPenalty
		hit2, ev2 := cc.l2.AccessEvict(id, ClassData)
		x1, x2 := dropped(ev, cc.l2), dropped(ev2, cc.l1d)
		llcMiss := false
		st.mu.Lock()
		mt.settle(core, k, st)
		if !hit2 {
			ct.L2DMiss++
			stall += h.cfg.L2.MissPenalty
			if !st.llc.Access(id, ClassData) {
				ct.LLCDMiss++
				llcMiss = true
			}
		}
		st.dir.set(id, st.dir.get(id)|uint64(1)<<uint(core))
		st.mu.Unlock()
		h.deferDropped(core, s, x1, x2)
		if llcMiss {
			stall += h.serveDataMissMT(s, k, id, ct)
		}
	}
	return stall
}

// deferDropped defers the directory clears for the lines dropped reported
// (tags, 0 for none) after they left core's private caches.
func (h *Hierarchy) deferDropped(core, s int, x1, x2 uint64) {
	if x1 != 0 {
		h.deferOp(core, s, (x1-1)|pendDirClear)
	}
	if x2 != 0 {
		h.deferOp(core, s, (x2-1)|pendDirClear)
	}
}

// serveDataMissMT is serveDataMiss with the remote LLCs probed by
// inRemoteLLC.
func (h *Hierarchy) serveDataMissMT(s, k int, id uint64, ct *MissCounts) int {
	if h.nSock > 1 {
		if h.inRemoteLLC(s, k, id) {
			ct.LLCDRemoteLLC++
			return h.cfg.RemoteLLCPenalty
		}
		if h.homeOf(id) != s {
			ct.LLCDRemoteDRAM++
			return h.cfg.RemoteDRAMPenalty
		}
	}
	return h.cfg.LLC.MissPenalty
}

// inRemoteLLC reports whether any socket other than s holds line id in its
// LLC, probing each under its own stripe k lock.
func (h *Hierarchy) inRemoteLLC(s, k int, id uint64) bool {
	for t := 0; t < h.nSock; t++ {
		if t == s {
			continue
		}
		rt := h.mt.stripe(t, k)
		rt.mu.Lock()
		hit := rt.llc.Probe(id)
		rt.mu.Unlock()
		if hit {
			return true
		}
	}
	return false
}

// fetchCodeMT is the concurrent-mode body of FetchCode: private I-side caches
// need no locks (code is read-only and never invalidated), an L2 miss probes
// the socket LLC under the line's stripe lock, and the prefetcher's LLC fills
// are deferred, so an L1I miss that hits in L2 takes no lock at all.
//
//oltpsim:hotpath
func (h *Hierarchy) fetchCodeMT(core int, addr simmem.Addr, nLines int) int {
	cc := &h.cores[core]
	ct := &h.counts[core]
	l1i, l2 := cc.l1i, cc.l2
	s := h.sockOf[core]
	mt := h.mt
	stall := 0
	line := uint64(addr) >> LineShift
	for i := 0; i < nLines; i++ {
		id := line + uint64(i)
		ct.L1IAcc++
		if l1i.Access(id, ClassInstr) {
			continue
		}
		ct.L1IMiss++
		stall += h.cfg.L1I.MissPenalty
		if !l2.Access(id, ClassInstr) {
			ct.L2IMiss++
			stall += h.cfg.L2.MissPenalty
			k := h.stripeOf(id)
			st := mt.stripe(s, k)
			st.mu.Lock()
			mt.settle(core, k, st)
			hit := st.llc.Access(id, ClassInstr)
			st.mu.Unlock()
			if !hit {
				ct.LLCIMiss++
				stall += h.serveInstrMissMT(s, k, id, ct)
			}
		}
		// Sequential next-line prefetch on the miss path, as in serial mode;
		// the shared-LLC fills are deferred (see the file comment).
		for p := 1; p <= h.cfg.IPrefetchLines; p++ {
			pid := id + uint64(p)
			l1i.FillQuiet(pid)
			l2.FillQuiet(pid)
			ct.IPrefetches++
			h.deferOp(core, s, pid)
		}
	}
	return stall
}

// serveInstrMissMT is serveInstrMiss with the remote LLCs probed by
// inRemoteLLC.
func (h *Hierarchy) serveInstrMissMT(s, k int, id uint64, ct *MissCounts) int {
	if h.nSock > 1 && h.inRemoteLLC(s, k, id) {
		ct.LLCIRemoteLLC++
		return h.cfg.RemoteLLCPenalty
	}
	return h.cfg.LLC.MissPenalty
}

// CheckCoherent verifies directory/cache agreement: every data line resident
// in a core's private L1D or L2 must have its directory sharer bit set — a
// missing bit would make the line invisible to writers and lose
// invalidations. The reverse direction is a superset check only: a directory
// bit may outlive the cached copy, because the unified L2 silently evicts
// data victims on instruction-side fills (in serialized mode too) without
// notifying the directory; stale bits cost at most a wasted invalidation
// probe, never correctness. The hierarchy must be quiescent (no accesses in
// flight; call Quiesce first in concurrent mode). Returns nil when coherence
// is disabled (no directory).
func (h *Hierarchy) CheckCoherent() error {
	if h.dirs == nil {
		return nil
	}
	var err error
	// Cache -> directory: every resident private data line is recorded. The
	// L2 is unified, so instruction lines (below the data segment) are
	// skipped — only data lines live in the directory.
	dataBase := uint64(simmem.DataBase) >> LineShift
	for c := range h.cores {
		s := h.sockOf[c]
		bit := uint64(1) << uint(c)
		check := func(which string, cache *Cache) {
			cache.Lines(func(id uint64) {
				if err != nil || id < dataBase {
					return
				}
				if h.dirs[s].get(id)&bit == 0 {
					err = fmt.Errorf("core: line %#x resident in core %d %s but not in socket %d directory",
						id, c, which, s)
				}
			})
		}
		check("l1d", h.cores[c].l1d)
		check("l2", h.cores[c].l2)
		if err != nil {
			return err
		}
	}
	// Directory -> cache (superset): sharer bits must at least name cores of
	// the directory's own socket; bits for stale (evicted) copies are
	// tolerated, see the function comment.
	for s := range h.dirs {
		lo, hi := h.socketRange(s)
		h.dirs[s].each(func(id, mask uint64) {
			if err != nil {
				return
			}
			if mask>>uint(hi) != 0 || (lo > 0 && mask&(uint64(1)<<uint(lo)-1) != 0) {
				err = fmt.Errorf("core: socket %d directory mask %#x for line %#x names cores outside [%d,%d)",
					s, mask, id, lo, hi)
			}
		})
		if err != nil {
			return err
		}
	}
	return err
}

// each visits every nonzero directory entry.
func (d *directory) each(visit func(id, mask uint64)) {
	for ci := range d.top {
		ch := (*dirChunk)(atomic.LoadPointer(&d.top[ci]))
		if ch == nil {
			continue
		}
		for pi := range ch {
			p := (*dirPage)(atomic.LoadPointer(&ch[pi]))
			if p == nil {
				continue
			}
			base := d.base + uint64(ci<<dirChunkShift+pi)<<dirPageShift
			for i, mask := range p {
				if mask != 0 {
					visit(base+uint64(i), mask)
				}
			}
		}
	}
}
