package main

import (
	"math"
	"sort"
	"strings"

	"oltpsim/internal/olog"
)

// tailLevels are the percentiles a tail metric may fall back to, highest
// first. A level is reportable only when at least minBeyond samples lie
// beyond it; otherwise the next lower level is used.
var tailLevels = []float64{0.999, 0.99, 0.95, 0.9, 0.75, 0.5}

const minBeyond = 10

// tailLevel returns the highest percentile, at most want, that has at least
// ten of n samples beyond it (the nearest-rank index ceil(q*n) leaves
// n-ceil(q*n) larger samples). With too few samples for even the median it
// returns 1: the maximum is the only honest tail statistic left.
func tailLevel(n int, want float64) float64 {
	for _, q := range tailLevels {
		if q > want {
			continue
		}
		if n-int(math.Ceil(q*float64(n))) >= minBeyond {
			return q
		}
	}
	return 1
}

// quantile returns the nearest-rank q-quantile of xs (sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(q * float64(len(xs))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(xs) {
		rank = len(xs)
	}
	return xs[rank-1]
}

// median is the middle value of xs (the mean of the two middle values for
// an even count), leaving xs sorted.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}

// openStats is what an open-loop phase achieved, computed from the request
// log rather than from driver.Report.Throughput, which counts requests by
// their scheduled time over the nominal window and so reports the offered
// rate even when the server falls behind.
type openStats struct {
	Scheduled int     // requests scheduled inside the measurement window
	Offered   float64 // Scheduled over the window, ops/s
	Achieved  float64 // completions inside the window over the window, ops/s
	// Outstanding requests (scheduled but not yet completed) at the middle
	// and at the end of the window. Backlog reports growth between the two
	// beyond a tolerance of max(10, 2% of Scheduled): a queue that keeps
	// growing means the offered rate is above capacity and the latencies
	// measure the drain, not the service.
	MidOutstanding, EndOutstanding int
	Backlog                        bool
	// Latency from the scheduled send (coordinated-omission corrected) and
	// generator lateness (actual minus scheduled send), nanoseconds, over
	// requests scheduled inside the window.
	Latency, Lag []float64
}

// analyzeOpen computes openStats for the window [warmEnd, end) (nanoseconds
// since the log's base) from the records of one run.
func analyzeOpen(recs []olog.Rec, warmEnd, end int64) openStats {
	var st openStats
	window := float64(end-warmEnd) / 1e9
	mid := warmEnd + (end-warmEnd)/2
	var schedMid, doneMid, schedEnd, doneEnd, completed int
	for _, r := range recs {
		if r.Sched < mid {
			schedMid++
		}
		if r.Done < mid {
			doneMid++
		}
		if r.Sched < end {
			schedEnd++
		}
		if r.Done < end {
			doneEnd++
		}
		if r.Done >= warmEnd && r.Done < end {
			completed++
		}
		if r.Sched >= warmEnd && r.Sched < end {
			st.Scheduled++
			st.Latency = append(st.Latency, float64(r.Done-r.Sched))
			st.Lag = append(st.Lag, float64(r.Start-r.Sched))
		}
	}
	if window > 0 {
		st.Offered = float64(st.Scheduled) / window
		st.Achieved = float64(completed) / window
	}
	st.MidOutstanding = schedMid - doneMid
	st.EndOutstanding = schedEnd - doneEnd
	tol := st.Scheduled / 50
	if tol < 10 {
		tol = 10
	}
	st.Backlog = st.EndOutstanding-st.MidOutstanding > tol
	return st
}

// goldenSections splits a rendered figure listing into its figures, keyed
// by figure ID. A section runs from its "== Figure <ID>: ..." header up to
// the next header, so it carries the blank separator line a listing puts
// after every figure; joining all sections in order gives the input back.
func goldenSections(text string) map[string]string {
	const prefix = "== Figure "
	out := make(map[string]string)
	lines := strings.SplitAfter(text, "\n")
	id := ""
	var b strings.Builder
	flush := func() {
		if id != "" {
			out[id] = b.String()
		}
		b.Reset()
	}
	for _, l := range lines {
		if strings.HasPrefix(l, prefix) {
			flush()
			rest := strings.TrimPrefix(l, prefix)
			id, _, _ = strings.Cut(rest, ":")
		}
		b.WriteString(l)
	}
	flush()
	return out
}
