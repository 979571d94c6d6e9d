package main

// The benchmark-side tracer: spans around the calls the step-by-step replay
// makes into each layer's exported functions. Spans live in memory and are
// written as JSON lines when the run ends. (Spans recorded inside the
// program are a later change, which must reproduce these names.)

import (
	"bufio"
	"encoding/json"
	"maps"
	"os"
	"slices"
	"time"
)

// span is one timed call. ID is its 1-based index in the tracer; Parent is
// the enclosing span's ID (0 for a request's root span); Request numbers
// the operation the span belongs to, so spans of one request share it.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Request int    `json:"request"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

type tracer struct {
	t0    time.Time
	spans []span
	// speed[request] is the machine speed around that request (calib.go),
	// set by the caller once the lap that closes it is taken; the span file
	// holds the times as measured, durations and self times apply it.
	speed map[int]float64
}

func newTracer() *tracer { return &tracer{t0: time.Now(), speed: map[int]float64{}} }

// setSpeed records the machine speed around requests first..last.
func (t *tracer) setSpeed(first, last int, speed float64) {
	for id := first; id <= last; id++ {
		t.speed[id] = speed
	}
}

// us is a span's duration in microseconds of reference-machine time.
func (t *tracer) us(s span, ns int64) float64 {
	speed, ok := t.speed[s.Request]
	if !ok {
		speed = 1
	}
	return float64(ns) / 1e3 * speed
}

// begin opens a span and returns its ID for end and for children.
func (t *tracer) begin(parent, request int, name string) int {
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Request: request, Name: name,
		StartNs: time.Since(t.t0).Nanoseconds(),
	})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	t.spans[id-1].EndNs = time.Since(t.t0).Nanoseconds()
}

// durations returns every span's duration in microseconds of
// reference-machine time, by name.
func (t *tracer) durations() map[string][]float64 {
	out := map[string][]float64{}
	for _, s := range t.spans {
		out[s.Name] = append(out[s.Name], t.us(s, s.EndNs-s.StartNs))
	}
	return out
}

// selfTimes returns, by span name, the total time in microseconds of
// reference-machine time not covered by child spans: a layer's own share of
// its requests.
func (t *tracer) selfTimes() map[string]float64 {
	child := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		child[s.Parent] += s.EndNs - s.StartNs
	}
	out := map[string]float64{}
	for _, s := range t.spans {
		out[s.Name] += t.us(s, s.EndNs-s.StartNs-child[s.ID])
	}
	return out
}

// noteSelfTimes adds the self-time table to r's notes, by span name.
func (t *tracer) noteSelfTimes(r *result) {
	self := t.selfTimes()
	for _, name := range slices.Sorted(maps.Keys(self)) {
		r.note("replay self time %-18s %10.1f ms", name, self[name]/1e3)
	}
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
