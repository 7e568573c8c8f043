package main

import (
	"strings"
	"sync"
	"time"
)

// The benchmark's own tracer. Spans are recorded from the benchmark's
// files around each call into a layer's public functions; the context
// handed to the program carries no tracer. Spans stay in memory and are
// written out once the run ends.

// span is one timed interval of one operation.
type span struct {
	Op     int    `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for the operation's root span
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer collects the spans of every operation of one run.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// opTrace records the spans of one operation on one goroutine: a root
// span for the whole operation and one child span per layer call.
type opTrace struct {
	t     *tracer
	op    int
	spans []span
}

// begin opens the root span of operation op.
func (t *tracer) begin(op int, name string) *opTrace {
	o := &opTrace{t: t, op: op}
	o.spans = append(o.spans, span{Op: op, ID: 1, Name: name, Start: o.now()})
	return o
}

func (o *opTrace) now() int64 { return int64(time.Since(o.t.epoch)) }

// layer times fn as a child span of the operation's root.
func (o *opTrace) layer(name string, fn func()) {
	s := span{Op: o.op, ID: len(o.spans) + 1, Parent: 1, Name: name, Start: o.now()}
	fn()
	s.End = o.now()
	o.spans = append(o.spans, s)
}

// finish closes the root span and hands the operation's spans to the
// tracer.
func (o *opTrace) finish() {
	o.spans[0].End = o.now()
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, o.spans...)
	o.t.mu.Unlock()
}

// record adds a finished operation with no layer spans.
func (t *tracer) record(op int, name string, start, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Op: op, ID: 1, Name: name,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch))})
}

// metricName maps an obs span name to a metric name (":" becomes ".").
func metricName(span string) string { return strings.ReplaceAll(span, ":", ".") }

// selfTimes sums self time per span name over every operation and
// returns it with the root spans' total wall time. A span's self time is
// its duration minus the part of it its child spans cover; layer spans
// here are leaves, so a root's self time is the untraced glue between
// layer calls.
func (t *tracer) selfTimes() (self map[string]time.Duration, opWall, layerSelf time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	self = make(map[string]time.Duration)
	type key struct{ op, id int }
	children := make(map[key]time.Duration)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[key{s.Op, s.Parent}] += s.dur()
		}
	}
	for _, s := range t.spans {
		d := s.dur() - children[key{s.Op, s.ID}]
		if s.Parent == 0 {
			opWall += s.dur()
			continue
		}
		self[s.Name] += d
		layerSelf += d
	}
	return self, opWall, layerSelf
}
