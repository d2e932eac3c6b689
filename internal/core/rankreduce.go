package core

import (
	"slices"

	"repro/internal/segment"
	"repro/internal/trace"
)

// RankReducer is the incremental, per-rank form of the reduction engine:
// a state machine that consumes one rank's segments in trace order and
// maintains the stored representatives, the execution log, and the
// matching counters as it goes. It exists so callers can reduce a trace
// while it is still being decoded or generated — one rank at a time, one
// segment at a time — instead of materializing every segment of every
// rank first. Reduce itself is a thin driver that runs one RankReducer
// per rank on a worker pool.
//
// Matching goes through a Matcher: representatives are indexed by
// signature, partitioned into comparability classes at insertion, and
// carry the policy's prepared state, so a scan costs one class lookup
// plus prepared-state comparisons instead of per-comparison Comparable
// checks and derived-data recomputation.
//
// A RankReducer is not safe for concurrent use; use one per goroutine.
type RankReducer struct {
	m   *Matcher
	out RankReduced
	// view is the candidate header FeedEvents points at each segment of
	// the rank in turn.
	view segment.Segment

	total, matches, possible int
}

// NewRankReducer returns a reducer for one rank's segment stream using
// policy p with the exact first-match scan.
func NewRankReducer(rank int, p Policy) *RankReducer {
	return &RankReducer{
		m:   NewMatcher(p),
		out: RankReduced{Rank: rank},
	}
}

// Feed consumes the rank's next segment: it is either logged as an
// execution of a matching stored representative of its pattern class or
// kept (normalized to start 0) as a new representative. Feed reads s
// but stores only a clone, so s may be a view, and callers may reuse or
// discard the segment afterwards.
func (r *RankReducer) Feed(s *segment.Segment) {
	r.total++
	rr := &r.out
	cls, idx, cs := r.m.Scan(s)
	if cls != nil {
		r.possible++
	}
	if idx >= 0 {
		storedID := cls.StoredID(idx)
		r.m.Absorb(cls, idx, s)
		rr.Execs = append(rr.Execs, Exec{ID: storedID, Start: s.Start})
		r.matches++
		return
	}
	id := len(rr.Stored)
	kept := s.Clone()
	kept.Start = 0
	rr.Stored = append(rr.Stored, kept)
	rr.Execs = append(rr.Execs, Exec{ID: id, Start: s.Start})
	r.m.Insert(cls, kept, id, cs)
}

// FeedEvents reduces one rank's raw event stream in a single walk: each
// segment reaches Feed as a view of events (segment.EachView) through
// one reusable header, so no segment is allocated and only kept
// representatives are copied. No view outlives the call, so the caller
// may recycle events as soon as it returns. The execution log is
// pre-grown to the stream's segment count.
func (r *RankReducer) FeedEvents(rank int, events []trace.Event) error {
	nseg := 0
	for i := range events {
		if events[i].Kind == trace.KindMarkBegin {
			nseg++
		}
	}
	r.out.Execs = slices.Grow(r.out.Execs, nseg)
	err := segment.EachView(rank, events, &r.view, r.Feed)
	r.view = segment.Segment{}
	return err
}

// Finish returns the rank's reduction. The reducer must not be fed
// afterwards.
func (r *RankReducer) Finish() RankReduced { return r.out }

// TotalSegments returns the number of segments fed so far.
func (r *RankReducer) TotalSegments() int { return r.total }

// Matches returns how many fed segments matched a stored representative.
func (r *RankReducer) Matches() int { return r.matches }

// PossibleMatches returns how many fed segments had any comparable
// predecessor — the denominator of the degree-of-matching metric.
func (r *RankReducer) PossibleMatches() int { return r.possible }
