package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"

	"oltpsim/internal/olog"
)

// span is one timed interval at a layer boundary: a phase, a cell, a ladder
// rung or a request. Times are nanoseconds since the tracer's base. Spans of
// one request share its ID; Parent links a span to the span that caused it
// (0 = root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; write persists them when the run ends. A
// nil tracer records nothing, which is how the untraced run measures.
type tracer struct {
	base  time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

// now is the tracer's clock (0 when tracing is off).
func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return time.Since(t.base).Nanoseconds()
}

// begin opens a span and returns its ID (0 when tracing is off).
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: now, End: -1})
	return len(t.spans)
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := t.now()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// requests adds one span per logged request under parent. The log's times
// are relative to the load driver's own base, which started at logBase on the
// tracer's clock. Each request gets a "request" span from its scheduled
// send to its answer and, beneath it, a "send_lag" span (scheduled to
// actual send) and a "round_trip" span (send to answer).
func (t *tracer) requests(parent int, logBase int64, recs []olog.Rec) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, r := range recs {
		id := len(t.spans) + 1
		t.spans = append(t.spans,
			span{ID: id, Parent: parent, Name: "request", Start: logBase + r.Sched, End: logBase + r.Done},
			span{ID: id + 1, Parent: id, Name: "send_lag", Start: logBase + r.Sched, End: logBase + r.Start},
			span{ID: id + 2, Parent: id, Name: "round_trip", Start: logBase + r.Start, End: logBase + r.Done})
	}
}

// write saves every span as one JSON object per line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
