package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed region of the traced run. Spans nest only where the
// benchmark itself nests calls (a refinement run contains its point
// solves); every other layer is timed by replaying the same inputs one
// layer down, as a separate top-level span.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent,omitempty"`
	Trace  string  `json:"trace"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_us"`
	End    float64 `json:"end_us"`
}

// tracer records spans in memory; write dumps them at the end of the run.
// A disabled tracer still times (callers need the durations) but records
// nothing, which is what the overhead measurement compares against.
type tracer struct {
	epoch time.Time
	on    bool
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), on: true} }

// timed runs fn inside a span and returns its duration. fn receives the
// span's id for nesting (0 when the tracer is off).
func (t *tracer) timed(trace, name string, parent int, fn func(id int)) time.Duration {
	id := 0
	if t.on {
		id = len(t.spans) + 1
		t.spans = append(t.spans, span{ID: id, Parent: parent, Trace: trace, Name: name})
	}
	start := time.Now()
	fn(id)
	end := time.Now()
	if t.on {
		s := &t.spans[id-1]
		s.Start = float64(start.Sub(t.epoch)) / 1e3
		s.End = float64(end.Sub(t.epoch)) / 1e3
	}
	return end.Sub(start)
}

func (t *tracer) write(path string) error {
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
