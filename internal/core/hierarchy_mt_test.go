package core

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"oltpsim/internal/simmem"
)

// This file hammers the concurrent-mode hierarchy paths (hierarchy_mt.go)
// with real goroutine interleaving and asserts the invariants that survive
// it:
//
//  1. after Quiesce, the coherence directory and the private caches agree
//     exactly (CheckCoherent);
//  2. per-core miss counters stay conserved (the serial suite's invariant 3);
//  3. TotalCounts is exactly the per-core sum — no events are lost or
//     double-counted by the striped locking;
//  4. a single active core in concurrent mode produces byte-for-byte the
//     counters, stalls, LLC contents and directory of serialized mode (the
//     lock striping and the deferred fills must not change the simulation,
//     only permit interleaving).
//
// Run with -race to also let the detector check the locking discipline.

// mtHammerStep drives one random access on core c. Shared tight line ranges
// force heavy cross-core sharing and invalidation traffic.
func mtHammerStep(h *Hierarchy, c int, r *testRand, dataLines, codeLines int) {
	id := uint64(r.intn(dataLines))
	addr := simmem.DataBase + simmem.Addr(id)*LineBytes
	switch r.intn(8) {
	case 0, 1:
		h.DataAccess(c, addr, 8, true)
	case 2, 3, 4, 5:
		h.DataAccess(c, addr, 8, false)
	default:
		h.FetchCode(c, simmem.CodeBase+simmem.Addr(r.intn(codeLines))*LineBytes, 1+r.intn(4))
	}
}

func TestConcurrentHierarchyHammer(t *testing.T) {
	const steps = 20000
	for _, tc := range []struct{ cores, sockets, prefetch int }{{2, 1, 0}, {4, 2, 0}, {8, 4, 0}, {4, 2, 3}} {
		name := fmt.Sprintf("%dcores_%dsockets", tc.cores, tc.sockets)
		if tc.prefetch > 0 {
			name += fmt.Sprintf("_prefetch%d", tc.prefetch)
		}
		t.Run(name, func(t *testing.T) {
			cfg := numaTestCfg(tc.cores, tc.sockets)
			cfg.IPrefetchLines = tc.prefetch
			h := NewHierarchy(cfg)
			h.SetConcurrent(true)
			var wg sync.WaitGroup
			for c := 0; c < tc.cores; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					r := &testRand{s: uint64(c)<<32 + 1}
					for i := 0; i < steps; i++ {
						mtHammerStep(h, c, r, 192, 64)
					}
				}(c)
			}
			wg.Wait()
			h.Quiesce()
			if err := h.CheckCoherent(); err != nil {
				t.Fatalf("coherence after quiesce: %v", err)
			}
			for c := range h.mt.pend {
				for k := range h.mt.pend[c] {
					if n := h.mt.pend[c][k].n; n != 0 {
						t.Fatalf("core %d stripe %d holds %d deferred ops after quiesce", c, k, n)
					}
				}
			}
			checkCounters(t, h, steps)
			var sum MissCounts
			for c := 0; c < tc.cores; c++ {
				ct := h.Counts(c)
				if want := ct.L1IMiss * uint64(tc.prefetch); ct.IPrefetches != want {
					t.Fatalf("core %d issued %d prefetches for %d L1I misses, want %d",
						c, ct.IPrefetches, ct.L1IMiss, want)
				}
				sum.Add(ct)
			}
			if sum != h.TotalCounts() {
				t.Fatalf("TotalCounts %+v != per-core sum %+v", h.TotalCounts(), sum)
			}
			// Every core did `steps` operations; every one must be visible.
			if got := sum.L1DAcc + sum.L1IAcc; got < uint64(steps*tc.cores) {
				t.Fatalf("%d accesses recorded, want >= %d", got, steps*tc.cores)
			}
		})
	}
}

// TestConcurrentSingleCoreMatchesSerial runs the identical access sequence
// through serialized and concurrent mode with only one core active: the
// striped locking and the deferred LLC fills and directory clears must be a
// pure synchronization layer, leaving counters, stall cycles, every LLC's
// contents and the directory untouched once Quiesce has applied what is
// still deferred. The deep-prefetch case fills more lines per miss than a
// stripe's deferred buffer holds, so every miss overflows buffers.
func TestConcurrentSingleCoreMatchesSerial(t *testing.T) {
	const codeLines, dataLines = 64, 128
	type result struct {
		counts MissCounts
		stalls int
		llc    [][]bool   // per socket, per probed line
		dir    [][]uint64 // per socket, per data line
	}
	run := func(concurrent bool, prefetch, steps int) result {
		cfg := numaTestCfg(4, 2)
		cfg.IPrefetchLines = prefetch
		h := NewHierarchy(cfg)
		if concurrent {
			h.SetConcurrent(true)
		}
		const c = 1
		r := &testRand{s: 7}
		var res result
		for i := 0; i < steps; i++ {
			id := uint64(r.intn(dataLines))
			addr := simmem.DataBase + simmem.Addr(id)*LineBytes
			switch r.intn(8) {
			case 0, 1:
				res.stalls += h.DataAccess(c, addr, 8, true)
			case 2, 3, 4, 5:
				res.stalls += h.DataAccess(c, addr, 8, false)
			default:
				res.stalls += h.FetchCode(c, simmem.CodeBase+simmem.Addr(r.intn(codeLines))*LineBytes, 1+r.intn(4))
			}
		}
		if concurrent {
			h.Quiesce()
		}
		res.counts = h.Counts(c)
		codeBase := uint64(simmem.CodeBase) >> LineShift
		dataBase := uint64(simmem.DataBase) >> LineShift
		for s := 0; s < h.Sockets(); s++ {
			var llc []bool
			// Every fetched line plus the deepest prefetch past the last one.
			for id := codeBase; id < codeBase+codeLines+4+uint64(prefetch); id++ {
				llc = append(llc, h.llcs[s].Probe(id))
			}
			var dir []uint64
			for id := dataBase; id < dataBase+dataLines; id++ {
				llc = append(llc, h.llcs[s].Probe(id))
				dir = append(dir, h.dirs[s].get(id))
			}
			res.llc = append(res.llc, llc)
			res.dir = append(res.dir, dir)
		}
		return res
	}
	for _, tc := range []struct {
		name            string
		prefetch, steps int
	}{
		{"prefetch2", 2, 8000},
		{"prefetch_overflow", llcStripes*pendCap + 3, 2000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			serial := run(false, tc.prefetch, tc.steps)
			mt := run(true, tc.prefetch, tc.steps)
			if serial.counts != mt.counts {
				t.Errorf("single-core counters diverge:\nserial     %+v\nconcurrent %+v", serial.counts, mt.counts)
			}
			if serial.stalls != mt.stalls {
				t.Errorf("single-core stalls diverge: serial %d, concurrent %d", serial.stalls, mt.stalls)
			}
			if !reflect.DeepEqual(serial.llc, mt.llc) {
				t.Error("single-core LLC contents diverge after quiesce")
			}
			if !reflect.DeepEqual(serial.dir, mt.dir) {
				t.Error("single-core directory diverges after quiesce")
			}
		})
	}
}

// TestConcurrentWriteExclusivity checks invariant 2 of the serial coherence
// suite in concurrent mode: after all cores quiesce, a line written last by
// one core is held exclusively (other cores' private copies invalidated,
// remote LLC copies dropped). A final single-threaded write round pins the
// expected owner of each line.
func TestConcurrentWriteExclusivity(t *testing.T) {
	const cores, sockets = 4, 2
	h := NewHierarchy(numaTestCfg(cores, sockets))
	h.SetConcurrent(true)
	const lines = 64
	var wg sync.WaitGroup
	for c := 0; c < cores; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r := &testRand{s: uint64(c) + 99}
			for i := 0; i < 5000; i++ {
				mtHammerStep(h, c, r, lines, 32)
			}
		}(c)
	}
	wg.Wait()
	h.Quiesce()
	// Deterministic final owners: core (id % cores) rewrites line id.
	for id := uint64(0); id < lines; id++ {
		owner := int(id % cores)
		h.DataAccess(owner, simmem.DataBase+simmem.Addr(id)*LineBytes, 8, true)
	}
	h.Quiesce()
	if err := h.CheckCoherent(); err != nil {
		t.Fatalf("coherence: %v", err)
	}
	for id := uint64(0); id < lines; id++ {
		lineID := uint64(simmem.DataBase)>>LineShift + id
		checkWriteExclusive(t, h, lineID, int(id%cores), int(id))
	}
}
