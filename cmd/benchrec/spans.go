package main

import (
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// maxSpans bounds the spans one run keeps in memory; later spans are
// counted but dropped.
const maxSpans = 200_000

// tracer records spans around the benchmark's calls into each layer and
// keeps them in memory until the run writes them out as a Chrome
// trace-event file (chrome://tracing, Perfetto). A nil *tracer is the
// untraced state: every method is a no-op.
type tracer struct {
	t0      time.Time
	nextID  atomic.Int64
	mu      sync.Mutex
	done    []span
	dropped int
}

// span is one timed call; its parent is the span that caused it. The
// single span of a dtnd request carries the request's id.
type span struct {
	name       string
	id, parent int64
	req        int64
	start, end time.Duration
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under parent (nil for a root span).
func (t *tracer) begin(name string, parent *span) *span {
	return t.beginAt(name, parent, time.Now())
}

// beginAt opens a span starting at a chosen instant: an open-loop request
// starts when it was due, not when it was sent.
func (t *tracer) beginAt(name string, parent *span, at time.Time) *span {
	if t == nil {
		return nil
	}
	s := &span{name: name, id: t.nextID.Add(1), start: at.Sub(t.t0)}
	if parent != nil {
		s.parent = parent.id
	}
	return s
}

// end closes a span and keeps it.
func (t *tracer) end(s *span) {
	if t == nil || s == nil {
		return
	}
	s.end = time.Since(t.t0)
	t.mu.Lock()
	if len(t.done) < maxSpans {
		t.done = append(t.done, *s)
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// chromeEvent is one complete ("X") event of the Chrome trace-event format.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // µs
	Dur  float64        `json:"dur"` // µs
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChrome writes the kept spans as a Chrome trace-event JSON file.
func (t *tracer) writeChrome(path string) error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	evs := make([]chromeEvent, 0, len(t.done))
	for _, s := range t.done {
		args := map[string]any{"id": s.id, "parent": s.parent}
		if s.req != 0 {
			args["req"] = s.req
		}
		evs = append(evs, chromeEvent{
			Name: s.name, Ph: "X", Pid: 1, Tid: 1, Args: args,
			Ts:  float64(s.start) / 1e3,
			Dur: float64(s.end-s.start) / 1e3,
		})
	}
	dropped := t.dropped
	t.mu.Unlock()
	data, err := json.Marshal(map[string]any{
		"traceEvents":     evs,
		"displayTimeUnit": "ms",
		"otherData":       map[string]any{"dropped_spans": dropped},
	})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
