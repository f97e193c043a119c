package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// tracer keeps the spans of a traced run in memory and writes them out
// once, at the end, as Chrome trace-event JSON (loadable in Perfetto
// and chrome://tracing). Spans are recorded by the benchmark around its
// own calls into the program — CLI processes, served jobs and the layer
// walk — never from inside the program. A nil *tracer records nothing,
// which is how untraced runs skip the bookkeeping.
type tracer struct {
	mu      sync.Mutex
	t0      time.Time
	events  []traceEvent
	threads map[int]string
}

// traceEvent is one Chrome "complete" (ph X) or metadata (ph M) event.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`            // µs since the tracer started
	Dur  float64        `json:"dur,omitempty"` // µs
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// Trace lanes (Chrome thread ids). Serve clients use laneClient+i.
const (
	laneOps    = 1
	laneWalk   = 2
	laneClient = 10
)

func newTracer() *tracer {
	return &tracer{t0: time.Now(), threads: map[int]string{}}
}

// thread names a lane in the viewer.
func (t *tracer) thread(tid int, name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.threads[tid] = name
	t.mu.Unlock()
}

// span records one finished interval. args identifies the request the
// span served (input, experiment, job id), so spans of one request
// share an identifier.
func (t *tracer) span(tid int, cat, name string, start time.Time, d time.Duration, args map[string]any) {
	if t == nil {
		return
	}
	ev := traceEvent{
		Name: name, Cat: cat, Ph: "X", PID: 1, TID: tid,
		TS:   float64(start.Sub(t.t0).Nanoseconds()) / 1e3,
		Dur:  float64(d.Nanoseconds()) / 1e3,
		Args: args,
	}
	t.mu.Lock()
	t.events = append(t.events, ev)
	t.mu.Unlock()
}

// write renders the trace to path, creating its directory.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	events := make([]traceEvent, 0, len(t.events)+len(t.threads))
	for tid, name := range t.threads {
		events = append(events, traceEvent{Name: "thread_name", Ph: "M", PID: 1, TID: tid, Args: map[string]any{"name": name}})
	}
	events = append(events, t.events...)
	data, err := json.Marshal(struct {
		TraceEvents     []traceEvent `json:"traceEvents"`
		DisplayTimeUnit string       `json:"displayTimeUnit"`
	}{events, "ms"})
	if err != nil {
		return fmt.Errorf("encoding trace: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
