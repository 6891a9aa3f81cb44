package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// span is one timed call the benchmark made into the program. Parent
// is the index of the enclosing span, -1 for a root.
type span struct {
	Name   string
	Parent int
	Start  time.Duration // since the tracer's origin
	Dur    time.Duration
}

// tracer keeps spans in memory; they are written out only at the end.
// The timed and the traced runs record spans alike (the span clock is
// the benchmark's only clock); a traced run additionally writes them
// out and profiles the run phase.
type tracer struct {
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span under parent and returns its id.
func (t *tracer) begin(name string, parent int) int {
	t.spans = append(t.spans, span{Name: name, Parent: parent, Start: time.Since(t.origin)})
	return len(t.spans) - 1
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	s := &t.spans[id]
	s.Dur = time.Since(t.origin) - s.Start
	return s.Dur
}

// do runs fn inside a span.
func (t *tracer) do(name string, parent int, fn func() error) error {
	id := t.begin(name, parent)
	err := fn()
	t.end(id)
	return err
}

// total sums the durations of the spans named name under parent.
func (t *tracer) total(name string, parent int) time.Duration {
	var d time.Duration
	for _, s := range t.spans {
		if s.Parent == parent && s.Name == name {
			d += s.Dur
		}
	}
	return d
}

// writeChrome writes the spans in the Chrome trace-event format, which
// chrome://tracing and Perfetto open directly.
func (t *tracer) writeChrome(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	evs := make([]event, len(t.spans))
	for i, s := range t.spans {
		evs[i] = event{Name: s.Name, Ph: "X", Ts: float64(s.Start.Nanoseconds()) / 1e3,
			Dur: float64(s.Dur.Nanoseconds()) / 1e3, Pid: 1, Tid: 1,
			Args: map[string]int{"id": i, "parent": s.Parent}}
	}
	if err := json.NewEncoder(f).Encode(map[string]any{"traceEvents": evs}); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
