package main

import (
	"strings"
	"testing"

	"oltpsim/internal/olog"
)

func TestTailLevel(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		got  float64
	}{
		{10000, 0.999, 0.999}, // 10 beyond p99.9
		{9999, 0.999, 0.99},   // only 9 beyond p99.9
		{1000, 0.99, 0.99},    // exactly 10 beyond p99
		{999, 0.99, 0.95},     // 9 beyond p99
		{200, 0.99, 0.95},
		{100, 0.99, 0.9},
		{20, 0.99, 0.5}, // 10 beyond the median
		{19, 0.99, 1},   // nothing qualifies: the maximum
		{1, 0.5, 1},
		{5000, 0.5, 0.5}, // never above the level asked for
	}
	for _, c := range cases {
		if got := tailLevel(c.n, c.want); got != c.got {
			t.Errorf("tailLevel(%d, %v) = %v, want %v", c.n, c.want, got, c.got)
		}
	}
}

func TestQuantileAndMedian(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := quantile(xs, 0.5); got != 3 {
		t.Errorf("p50 = %v, want 3", got)
	}
	if got := quantile(xs, 1); got != 5 {
		t.Errorf("p100 = %v, want 5", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("empty median = %v, want 0", got)
	}
}

// synthLog builds an open-loop log: one request every gap ns from 0 to end,
// sent lag ns late, and answered by a single server that needs svc ns each.
func synthLog(end, gap, lag, svc int64) []olog.Rec {
	var recs []olog.Rec
	free := int64(0) // when the server is next idle
	for s := int64(0); s < end; s += gap {
		start := s + lag
		begin := start
		if free > begin {
			begin = free
		}
		free = begin + svc
		recs = append(recs, olog.Rec{Sched: s, Start: start, Done: free})
	}
	return recs
}

func TestAnalyzeOpenSteady(t *testing.T) {
	const sec = int64(1e9)
	// 1000 ops/s offered, 200µs service: 20% load, no queue.
	recs := synthLog(3*sec, sec/1000, 50_000, 200_000)
	st := analyzeOpen(recs, sec, 3*sec)
	if st.Scheduled != 2000 {
		t.Fatalf("scheduled %d, want 2000", st.Scheduled)
	}
	if st.Offered != 1000 {
		t.Errorf("offered %v, want 1000", st.Offered)
	}
	if st.Achieved < 990 || st.Achieved > 1010 {
		t.Errorf("achieved %v, want ~1000", st.Achieved)
	}
	if st.Backlog {
		t.Errorf("steady run flagged backlog (mid %d, end %d)", st.MidOutstanding, st.EndOutstanding)
	}
	if got := quantile(st.Lag, 0.5); got != 50_000 {
		t.Errorf("lag p50 %v, want 50000", got)
	}
	if got := quantile(st.Latency, 0.5); got != 250_000 {
		t.Errorf("latency p50 %v, want 250000 (lag + service)", got)
	}
}

func TestAnalyzeOpenOverload(t *testing.T) {
	const sec = int64(1e9)
	// 1000 ops/s offered, 2ms service: the server completes 500/s and the
	// queue grows for the whole run.
	recs := synthLog(3*sec, sec/1000, 0, 2_000_000)
	st := analyzeOpen(recs, sec, 3*sec)
	if st.Offered != 1000 {
		t.Errorf("offered %v, want 1000", st.Offered)
	}
	if st.Achieved < 490 || st.Achieved > 510 {
		t.Errorf("achieved %v, want ~500", st.Achieved)
	}
	if !st.Backlog {
		t.Errorf("overloaded run not flagged (mid %d, end %d)", st.MidOutstanding, st.EndOutstanding)
	}
	if st.EndOutstanding <= st.MidOutstanding {
		t.Errorf("outstanding did not grow: mid %d, end %d", st.MidOutstanding, st.EndOutstanding)
	}
}

func TestGoldenSections(t *testing.T) {
	text := "== Figure T1: params ==\na  b\n\n" +
		"== Figure 1: ipc ==\nx\nnote: y\n\n" +
		"== Figure 10: tpcc ==\nz\n\n"
	secs := goldenSections(text)
	if len(secs) != 3 {
		t.Fatalf("got %d sections, want 3: %q", len(secs), secs)
	}
	if got, want := secs["1"], "== Figure 1: ipc ==\nx\nnote: y\n\n"; got != want {
		t.Errorf("section 1 = %q, want %q", got, want)
	}
	if got := secs["T1"] + secs["1"] + secs["10"]; got != text {
		t.Errorf("sections do not rejoin to the input:\n%q", got)
	}
	if _, ok := secs["2"]; ok {
		t.Error("absent figure reported present")
	}
}

// TestGoldenSectionsRepoFile splits the committed quick-scale golden and
// checks that every figure the harness rung renders is present.
func TestGoldenSectionsRepoFile(t *testing.T) {
	text, err := readGolden("..")
	if err != nil {
		t.Fatal(err)
	}
	secs := goldenSections(text)
	for _, id := range figIDs {
		s, ok := secs[id]
		if !ok {
			t.Fatalf("golden has no figure %s", id)
		}
		if !strings.HasSuffix(s, "\n\n") {
			t.Errorf("figure %s section does not end with its separator line", id)
		}
	}
}
