package main

import "time"

// span is one timed call of a traced pass. Times are nanoseconds from
// the tracer's origin; Self is the span's duration minus the time its
// children cover.
type span struct {
	Name   string `json:"name"`
	Parent int    `json:"parent"` // index of the enclosing span, -1 for the root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
}

// tracer records the spans of one goroutine in memory; the run record
// writes them out when the run ends. A nil *tracer records nothing, so
// an untraced pass runs the same code at the cost of a nil check.
type tracer struct {
	origin time.Time
	spans  []span
	open   []int // spans begun and not yet ended, innermost last
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span inside the innermost open one and returns its index.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Parent: parent, Start: int64(time.Since(t.origin))})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

// end closes span id, which must be the innermost open span, and returns
// its duration in nanoseconds.
func (t *tracer) end(id int) int64 {
	if t == nil {
		return 0
	}
	s := &t.spans[id]
	s.End = int64(time.Since(t.origin))
	d := s.End - s.Start
	s.Self += d
	if s.Parent >= 0 {
		t.spans[s.Parent].Self -= d
	}
	t.open = t.open[:len(t.open)-1]
	return d
}
