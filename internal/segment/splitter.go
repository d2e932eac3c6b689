package segment

import (
	"fmt"

	"repro/internal/trace"
)

// cursor enforces the marker discipline over one rank's event stream —
// alternating, non-nested begin and end markers with matching contexts,
// and no event outside a segment — for both EachView and Splitter.
type cursor struct {
	rank  int
	open  bool       // a begin marker awaits its end
	ctx   string     // the open (or last closed) segment's context
	start trace.Time // its begin-marker stamp
}

// step checks e, the stream's i-th event, against the discipline and
// advances. An event inside an open segment, the common case, stays
// inline.
func (c *cursor) step(e *trace.Event, i int) error {
	if c.open && !e.Kind.IsMarker() {
		return nil
	}
	return c.mark(e, i)
}

// mark steps over a marker, or rejects an event outside any segment.
func (c *cursor) mark(e *trace.Event, i int) error {
	switch e.Kind {
	case trace.KindMarkBegin:
		if c.open {
			return fmt.Errorf("segment: rank %d event %d: nested segment %q inside %q",
				c.rank, i, e.Name, c.ctx)
		}
		c.open, c.ctx, c.start = true, e.Name, e.Enter
	case trace.KindMarkEnd:
		if !c.open {
			return fmt.Errorf("segment: rank %d event %d: end %q without begin", c.rank, i, e.Name)
		}
		if c.ctx != e.Name {
			return fmt.Errorf("segment: rank %d event %d: end %q does not match open %q",
				c.rank, i, e.Name, c.ctx)
		}
		c.open = false
	default:
		return fmt.Errorf("segment: rank %d event %d (%s): event outside any segment",
			c.rank, i, e.Name)
	}
	return nil
}

// finish fails if a segment is still open.
func (c *cursor) finish() error {
	if c.open {
		return fmt.Errorf("segment: rank %d: segment %q never closed", c.rank, c.ctx)
	}
	return nil
}

// EachView walks one rank's event stream and calls fn with a view of
// every segment as its end marker closes it, under the same marker
// discipline as Splitter. The view is v, overwritten for each segment:
// its Events alias events between the markers, keeping their absolute
// stamps, so it is valid only during the call and fn must Clone what it
// keeps. The walk allocates nothing and copies no event.
func EachView(rank int, events []trace.Event, v *Segment, fn func(*Segment)) error {
	c := cursor{rank: rank}
	first := 0 // index of the open segment's first event
	for i := range events {
		e := &events[i]
		if err := c.step(e, i); err != nil {
			return err
		}
		switch e.Kind {
		case trace.KindMarkBegin:
			first = i + 1
		case trace.KindMarkEnd:
			*v = Segment{Context: c.ctx, Rank: rank, Start: c.start, End: e.Enter - c.start,
				Events: events[first:i:i], Weight: 1, base: c.start}
			fn(v)
		}
	}
	return c.finish()
}

// Splitter cuts one rank's event stream into segments incrementally: feed
// events in trace order and a completed segment comes back as soon as its
// closing marker arrives. It is the streaming, copying form of EachView
// and enforces the same marker discipline; each segment it returns owns
// its events, rebased relative to Start.
type Splitter struct {
	c   cursor
	pos int // events consumed, for error positions
	cur *Segment
}

// NewSplitter returns a Splitter for the given rank's event stream.
func NewSplitter(rank int) *Splitter {
	return &Splitter{c: cursor{rank: rank}}
}

// Feed consumes the next event of the stream. When the event closes a
// segment, the completed segment (times rebased relative to its begin
// marker) is returned; otherwise the segment result is nil. Feed returns
// an error on marker-discipline violations, after which the Splitter must
// not be used further.
func (sp *Splitter) Feed(e trace.Event) (*Segment, error) {
	if err := sp.c.step(&e, sp.pos); err != nil {
		return nil, err
	}
	sp.pos++
	switch e.Kind {
	case trace.KindMarkBegin:
		sp.cur = &Segment{Context: e.Name, Rank: sp.c.rank, Start: e.Enter, Weight: 1}
	case trace.KindMarkEnd:
		done := sp.cur
		done.End = e.Enter - done.Start
		sp.cur = nil
		return done, nil
	default:
		e.Enter -= sp.cur.Start
		e.Exit -= sp.cur.Start
		sp.cur.Events = append(sp.cur.Events, e)
	}
	return nil, nil
}

// Finish declares the stream complete. It fails if a segment is still
// open.
func (sp *Splitter) Finish() error { return sp.c.finish() }

// Open reports whether a segment is currently open (a begin marker has
// been fed without its matching end).
func (sp *Splitter) Open() bool { return sp.c.open }
