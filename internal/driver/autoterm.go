package driver

import (
	"math"
	"sync/atomic"
	"time"
)

// autotermSamples is how many per-interval throughput samples the rolling
// stability window holds; the monitor samples every
// AutoTermWindow/autotermSamples.
const autotermSamples = 8

// stabilizer is the pure decision core behind -autoterm: a rolling window of
// per-interval completed-op counts, declared stable when the coefficient of
// variation (stddev/mean, in percent) drops to pct or below. It is
// deterministic given its input series, so the policy is unit-testable
// without a clock.
type stabilizer struct {
	pct  float64
	win  []float64
	next int
	n    int
}

func newStabilizer(pct float64, samples int) *stabilizer {
	return &stabilizer{pct: pct, win: make([]float64, samples)}
}

// add pushes one per-interval sample and reports whether the window is full
// and stable.
func (s *stabilizer) add(v float64) bool {
	s.win[s.next] = v
	s.next = (s.next + 1) % len(s.win)
	if s.n < len(s.win) {
		s.n++
		if s.n < len(s.win) {
			return false
		}
	}
	var sum float64
	for _, x := range s.win {
		sum += x
	}
	mean := sum / float64(len(s.win))
	if mean <= 0 {
		return false // an idle window is not a stable one
	}
	var sq float64
	for _, x := range s.win {
		d := x - mean
		sq += d * d
	}
	sd := math.Sqrt(sq / float64(len(s.win)))
	return 100*sd/mean <= s.pct
}

// autoterm is the stability monitor for one driver run: it samples the
// connections' completed-op counters on a fixed interval (warmup excluded)
// and, once the stabilizer fires, raises every connection's stop flag so the
// run drains exactly like a scheduled end-of-window. The covered-window
// clamp then reports throughput over the span actually measured.
type autoterm struct {
	window    time.Duration // rolling stability window
	pct       float64       // CV threshold, percent
	triggered atomic.Bool
	quit      chan struct{}
	done      chan struct{}
}

func (at *autoterm) start(conns []*conn, base time.Time, warmEnd, _ int64) {
	at.quit = make(chan struct{})
	at.done = make(chan struct{})
	interval := max(at.window/autotermSamples, time.Millisecond)
	go func() {
		defer close(at.done)
		st := newStabilizer(at.pct, autotermSamples)
		tick := time.NewTicker(interval)
		defer tick.Stop()
		var prev uint64
		primed := false
		for {
			select {
			case <-at.quit:
				return
			case <-tick.C:
			}
			var total uint64
			for _, c := range conns {
				total += c.ops.Load() + c.errs.Load()
			}
			if !primed || time.Since(base).Nanoseconds() < warmEnd {
				// Warmup throughput is ramp, not signal: keep the window empty.
				prev, primed = total, true
				continue
			}
			delta := total - prev
			prev = total
			if st.add(float64(delta)) {
				at.triggered.Store(true)
				for _, c := range conns {
					c.stop.Store(true)
				}
				return
			}
		}
	}()
}

// stop ends the monitor (idempotent with a fired monitor) and waits for it.
func (at *autoterm) stop() {
	close(at.quit)
	<-at.done
}
