package core

import (
	"sync"
	"testing"

	"oltpsim/internal/simmem"
)

// The MT benchmarks price the concurrent-mode synchronization on the
// hierarchy's two entry points. Each runs three ways on the same access
// streams:
//
//   - serial: the serialized hierarchy, one core;
//   - concurrent-1: concurrent mode, one goroutine on one core (the
//     synchronization cost alone, with no contention);
//   - concurrent-2: concurrent mode, two goroutines on two cores of one
//     socket, the configuration a two-shard oltpd serves in (ns/op is wall
//     time over the operations of both goroutines).
//
// Compare with: go test -run '^$' -bench 'MT$' -count 5 ./internal/core

const (
	benchCodeLines = 1024 // 64KB of code: twice the L1I
	benchFetchRun  = 8    // lines per FetchCode call
	benchStream    = 1 << 14
)

// benchStreams returns FetchCode start addresses at random offsets in the
// code footprint and 8-byte data addresses at random lines of a data set
// four times the LLC.
func benchStreams(seed uint64) (code, data []simmem.Addr) {
	r := &testRand{s: seed}
	llcLines := IvyBridge(1).LLC.SizeBytes / LineBytes
	code = make([]simmem.Addr, benchStream)
	data = make([]simmem.Addr, benchStream)
	for i := range code {
		code[i] = simmem.CodeBase + simmem.Addr(r.intn(benchCodeLines-benchFetchRun))*LineBytes
		data[i] = simmem.DataBase + simmem.Addr(r.intn(4*llcLines))*LineBytes
	}
	return code, data
}

var benchSink int

// benchMT runs op over b.N stream positions: on core 0 of a serial
// hierarchy, or split across goroutines on cores 0..workers-1 of a
// concurrent one. Each stream is replayed once untimed to warm the caches.
func benchMT(b *testing.B, op func(h *Hierarchy, core int, a simmem.Addr) int, pick func(code, data []simmem.Addr) []simmem.Addr) {
	for _, bc := range []struct {
		name    string
		workers int
	}{{"serial", 0}, {"concurrent-1", 1}, {"concurrent-2", 2}} {
		b.Run(bc.name, func(b *testing.B) {
			h := NewHierarchy(IvyBridge(2))
			workers := bc.workers
			if workers == 0 {
				workers = 1
			} else {
				h.SetConcurrent(true)
				defer h.SetConcurrent(false)
			}
			streams := make([][]simmem.Addr, workers)
			for w := range streams {
				streams[w] = pick(benchStreams(uint64(w) + 1))
				for _, a := range streams[w] {
					benchSink += op(h, w, a)
				}
			}
			b.ResetTimer()
			var wg sync.WaitGroup
			stalls := make([]int, workers)
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					seq := streams[w]
					st := 0
					for i := w; i < b.N; i += workers {
						st += op(h, w, seq[i%len(seq)])
					}
					stalls[w] = st
				}(w)
			}
			wg.Wait()
			for _, st := range stalls {
				benchSink += st
			}
		})
	}
}

func BenchmarkFetchCodeMT(b *testing.B) {
	benchMT(b, func(h *Hierarchy, core int, a simmem.Addr) int {
		return h.FetchCode(core, a, benchFetchRun)
	}, func(code, _ []simmem.Addr) []simmem.Addr { return code })
}

func BenchmarkDataAccessMT(b *testing.B) {
	benchMT(b, func(h *Hierarchy, core int, a simmem.Addr) int {
		return h.DataAccess(core, a, 8, false)
	}, func(_, data []simmem.Addr) []simmem.Addr { return data })
}
