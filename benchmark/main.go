// Command benchmark is oltpsim's repository benchmark. It runs one named
// workload with the shipped defaults, checks the outputs, and prints every
// metric by name with its unit and sample count; the last line of standard
// output is one JSON object with the verdict and the metrics. From the
// repository root:
//
//	bash benchmark/run.sh --workload serve-micro --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it measures the end-to-end metrics. With --trace 1 it
// instead runs the workload once traced and once untraced, then the
// per-layer ladder and the open loop, and reports per-layer metrics plus
// the tracing overhead; spans are written to .bench_build/traces when the
// run ends.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"
)

// metric is one reported number.
type metric struct {
	Name  string
	Unit  string
	Value float64
	N     int // samples behind the value
	Note  string
}

// report is the outcome of one benchmark run.
type report struct {
	Attempted, Failed uint64
	Problems          []string // correctness failures, printed and fatal to "correct"
	Warnings          []string // printed only
	Metrics           []metric
	Info              []metric // printed, not part of the JSON result
}

func (r *report) add(name, unit string, v float64, n int) {
	r.Metrics = append(r.Metrics, metric{Name: name, Unit: unit, Value: v, N: n})
}

func (r *report) addNote(name, unit string, v float64, n int, note string) {
	r.Metrics = append(r.Metrics, metric{Name: name, Unit: unit, Value: v, N: n, Note: note})
}

func (r *report) info(name, unit string, v float64, n int) {
	r.Info = append(r.Info, metric{Name: name, Unit: unit, Value: v, N: n})
}

// merge adds sub's metrics and correctness checks to r.
func (r *report) merge(sub *report) {
	r.Attempted += sub.Attempted
	r.Failed += sub.Failed
	r.Problems = append(r.Problems, sub.Problems...)
	r.Warnings = append(r.Warnings, sub.Warnings...)
	r.Metrics = append(r.Metrics, sub.Metrics...)
	r.Info = append(r.Info, sub.Info...)
}

func (r *report) problem(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

func (r *report) warn(format string, args ...any) {
	r.Warnings = append(r.Warnings, fmt.Sprintf(format, args...))
}

// setup reports the median set-up time: an end-to-end metric, printed for
// information in the traced run.
func (r *report) setup(secs float64, n int, traced bool) {
	if traced {
		r.info("setup_s", "s", secs, n)
		return
	}
	r.add("setup_s", "s", secs, n)
}

// opts are the command-line settings every workload receives.
type opts struct {
	seed    uint64
	seconds int
	tr      *tracer // nil for the untraced run
}

// buildDir holds what a run leaves behind: spans and request logs. The
// benchmark runs from the repository root.
const buildDir = ".bench_build"

var workloads = map[string]func(o opts, rep *report) error{
	"serve-micro": runServeMicro,
	"serve-tpcc":  runServeTPCC,
}

func main() {
	name := flag.String("workload", "", "workload to run: serve-micro or serve-tpcc")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 = traced per-layer run, 0 = end-to-end run")
	flag.Parse()

	run, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "benchmark: need --workload serve-micro|serve-tpcc, --seconds >= 1 and --trace 0|1")
		os.Exit(2)
	}
	o := opts{seed: *seed, seconds: *seconds}
	if *trace == 1 {
		o.tr = newTracer()
	}
	rep := &report{}
	if err := run(o, rep); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", *name, err)
		os.Exit(1)
	}
	if o.tr != nil {
		path := filepath.Join(buildDir, "traces", fmt.Sprintf("%s-seed%d.jsonl", *name, *seed))
		if err := o.tr.write(path); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: writing spans: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("spans written to %s\n", path)
	}
	if !printReport(*name, *trace == 1, rep) {
		os.Exit(1)
	}
}

// printReport prints the metric table, any correctness problems, and the
// JSON result line, and reports whether the run was correct.
func printReport(name string, traced bool, rep *report) bool {
	mode := "end-to-end"
	if traced {
		mode = "per-layer (traced)"
	}
	fmt.Printf("%s: %s metrics\n", name, mode)
	fmt.Printf("  %-30s %16s  %-6s %8s\n", "metric", "value", "unit", "samples")
	for _, m := range append(append([]metric{}, rep.Metrics...), rep.Info...) {
		fmt.Printf("  %-30s %16.6g  %-6s %8d", m.Name, m.Value, m.Unit, m.N)
		if m.Note != "" {
			fmt.Printf("  (%s)", m.Note)
		}
		fmt.Println()
	}
	failRatio := 0.0
	if rep.Attempted > 0 {
		failRatio = float64(rep.Failed) / float64(rep.Attempted)
	}
	fmt.Printf("  %-30s %16.6g  %-6s %8d\n", "fail_ratio", failRatio, "ratio", rep.Attempted)
	for _, w := range rep.Warnings {
		fmt.Printf("WARNING: %s\n", w)
	}
	for _, p := range rep.Problems {
		fmt.Printf("CORRECTNESS: %s\n", p)
	}

	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted uint64                `json:"attempted"`
		Failed    uint64                `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{
		Correct:   len(rep.Problems) == 0 && rep.Failed == 0 && rep.Attempted > 0,
		Attempted: rep.Attempted,
		Failed:    rep.Failed,
		Metrics:   make(map[string]jsonMetric),
	}
	if out.Attempted == 0 {
		out.Attempted = 1
		out.Failed = 1
	}
	for _, m := range rep.Metrics {
		out.Metrics[m.Name] = jsonMetric{Value: m.Value, Unit: m.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
	return out.Correct
}

// --- host measurements -------------------------------------------------------

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// totalAlloc returns the cumulative bytes allocated on the heap.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// gcClock reads the runtime's estimate of GC CPU seconds and total CPU
// seconds; gcPct turns two readings into the GC share of CPU in between.
type gcClock struct{ gc, total float64 }

func readGCClock() gcClock {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	var c gcClock
	if s[0].Value.Kind() == metrics.KindFloat64 {
		c.gc = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		c.total = s[1].Value.Float64()
	}
	return c
}

func gcPct(before, after gcClock) float64 {
	if d := after.total - before.total; d > 0 {
		return 100 * (after.gc - before.gc) / d
	}
	return 0
}

// overheadPct is the throughput the traced repetition lost against the
// untraced one, in percent of the untraced throughput.
func overheadPct(untraced, traced float64) float64 {
	if untraced <= 0 {
		return 0
	}
	return 100 * (untraced - traced) / untraced
}
