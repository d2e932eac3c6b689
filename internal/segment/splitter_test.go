package segment

import (
	"testing"

	"repro/internal/trace"
)

// feedAll feeds every event of rt through a fresh Splitter, returning the
// yielded segments.
func feedAll(t *testing.T, rt *trace.RankTrace) []*Segment {
	t.Helper()
	sp := NewSplitter(rt.Rank)
	var segs []*Segment
	for _, e := range rt.Events {
		s, err := sp.Feed(e)
		if err != nil {
			t.Fatalf("Feed: %v", err)
		}
		if s != nil {
			segs = append(segs, s)
		}
	}
	if err := sp.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}
	return segs
}

func TestSplitterYieldsAtClosingMarker(t *testing.T) {
	rt := &trace.RankTrace{Rank: 3}
	add := func(e trace.Event) { rt.Events = append(rt.Events, e) }
	add(trace.Event{Name: "main.1", Kind: trace.KindMarkBegin, Enter: 100, Exit: 100})
	add(trace.Event{Name: "w", Kind: trace.KindCompute, Enter: 100, Exit: 110})
	add(trace.Event{Name: "main.1", Kind: trace.KindMarkEnd, Enter: 112, Exit: 112})
	add(trace.Event{Name: "main.1", Kind: trace.KindMarkBegin, Enter: 120, Exit: 120})
	add(trace.Event{Name: "w", Kind: trace.KindCompute, Enter: 121, Exit: 130})
	add(trace.Event{Name: "main.1", Kind: trace.KindMarkEnd, Enter: 131, Exit: 131})

	sp := NewSplitter(rt.Rank)
	var got []*Segment
	for i, e := range rt.Events {
		s, err := sp.Feed(e)
		if err != nil {
			t.Fatalf("Feed(%d): %v", i, err)
		}
		// A segment must surface exactly when its end marker is fed.
		if wantSeg := e.Kind == trace.KindMarkEnd; (s != nil) != wantSeg {
			t.Fatalf("Feed(%d): segment yielded = %v, want %v", i, s != nil, wantSeg)
		}
		if e.Kind == trace.KindMarkBegin && !sp.Open() {
			t.Fatalf("Feed(%d): Open() = false inside a segment", i)
		}
		if s != nil {
			got = append(got, s)
		}
	}
	if err := sp.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}
	if len(got) != 2 {
		t.Fatalf("yielded %d segments, want 2", len(got))
	}
	if got[0].Start != 100 || got[0].End != 12 || got[0].Rank != 3 {
		t.Errorf("segment 0 = start %d end %d rank %d, want 100/12/3", got[0].Start, got[0].End, got[0].Rank)
	}
	if got[0].Events[0].Enter != 0 || got[0].Events[0].Exit != 10 {
		t.Errorf("segment 0 events not rebased: %+v", got[0].Events[0])
	}
	if got[1].Start != 120 || got[1].End != 11 {
		t.Errorf("segment 1 = start %d end %d, want 120/11", got[1].Start, got[1].End)
	}
}

func TestSplitterMatchesBatchSplit(t *testing.T) {
	rt := &trace.RankTrace{Rank: 1}
	now := trace.Time(0)
	for i := 0; i < 5; i++ {
		rt.Events = append(rt.Events,
			trace.Event{Name: "main.1", Kind: trace.KindMarkBegin, Enter: now, Exit: now},
			trace.Event{Name: "send", Kind: trace.KindSend, Enter: now + 1, Exit: now + 2, Peer: 1, Tag: 7, Bytes: 64},
			trace.Event{Name: "main.1", Kind: trace.KindMarkEnd, Enter: now + 3, Exit: now + 3},
		)
		now += 10
	}
	batch, err := Split(rt)
	if err != nil {
		t.Fatalf("Split: %v", err)
	}
	streamed := feedAll(t, rt)
	if len(batch) != len(streamed) {
		t.Fatalf("batch %d segments, streamed %d", len(batch), len(streamed))
	}
	for i := range batch {
		b, s := batch[i], streamed[i]
		if b.Context != s.Context || b.Start != s.Start || b.End != s.End || len(b.Events) != len(s.Events) {
			t.Errorf("segment %d differs: batch %+v streamed %+v", i, b, s)
		}
		for j := range b.Events {
			if b.Events[j] != s.Events[j] {
				t.Errorf("segment %d event %d differs: %+v vs %+v", i, j, b.Events[j], s.Events[j])
			}
		}
	}
}

func TestSplitterErrors(t *testing.T) {
	mk := func(name string, kind trace.EventKind) trace.Event {
		return trace.Event{Name: name, Kind: kind}
	}
	cases := []struct {
		name   string
		events []trace.Event
	}{
		{"nested begin", []trace.Event{mk("a", trace.KindMarkBegin), mk("b", trace.KindMarkBegin)}},
		{"end without begin", []trace.Event{mk("a", trace.KindMarkEnd)}},
		{"mismatched end", []trace.Event{mk("a", trace.KindMarkBegin), mk("b", trace.KindMarkEnd)}},
		{"event outside segment", []trace.Event{mk("w", trace.KindCompute)}},
	}
	for _, tc := range cases {
		sp := NewSplitter(0)
		var err error
		for _, e := range tc.events {
			if _, err = sp.Feed(e); err != nil {
				break
			}
		}
		if err == nil {
			t.Errorf("%s: no error", tc.name)
			continue
		}
		// Split walks views under the same marker check.
		if _, want := Split(&trace.RankTrace{Events: tc.events}); want == nil || err.Error() != want.Error() {
			t.Errorf("%s: Splitter says %q, Split says %v", tc.name, err, want)
		}
	}
	// Unclosed segment surfaces at Finish, not Feed.
	sp := NewSplitter(0)
	if _, err := sp.Feed(mk("a", trace.KindMarkBegin)); err != nil {
		t.Fatalf("Feed: %v", err)
	}
	if err := sp.Finish(); err == nil {
		t.Error("Finish with open segment: no error")
	}
}
