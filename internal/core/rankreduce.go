package core

import (
	"sync"

	"repro/internal/bufpool"
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
// The execution log and the kept representatives come from pools
// (execLogs, repHeaders, repEvents). Whoever takes the reduction from
// Finish owns them: batch Reduce hands them to its caller, and the
// pipeline gives them back through releaseRank once the rank is
// encoded. The engine runs one RankReducer per worker and resets it
// between ranks, so the matcher's table and slabs serve every rank the
// worker claims.
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

// reset readies r for the next rank. The last rank's reduction now
// belongs to whoever took it from Finish, so r drops it without
// touching its storage; the matcher keeps its own.
func (r *RankReducer) reset(rank int) {
	r.m.reset()
	r.out = RankReduced{Rank: rank}
	r.total, r.matches, r.possible = 0, 0, 0
}

// The pools behind a rank's reduction: its execution log, and its kept
// representatives' headers and events. Only the pipeline puts storage
// back (releaseRank); a batch Reduce caller keeps what it was given.
var (
	execLogs   bufpool.Pool[Exec]
	repEvents  bufpool.Pool[trace.Event]
	repHeaders = sync.Pool{New: func() any { return new(segment.Segment) }}
)

// releaseRank gives rr's execution log and kept representatives back to
// their pools and empties rr. Nothing may read the reduction afterwards:
// the caller has encoded it, counted its records and taken its stats.
func releaseRank(rr *RankReduced) {
	for _, s := range rr.Stored {
		repEvents.Put(s.Events)
		*s = segment.Segment{}
		repHeaders.Put(s)
	}
	execLogs.Put(rr.Execs)
	*rr = RankReduced{}
}

// Feed consumes the rank's next segment: it is either logged as an
// execution of a matching stored representative of its pattern class or
// kept (normalized to start 0) as a new representative. Feed reads s
// but stores only a clone, drawn from the representative pools, so s may
// be a view, and callers may reuse or discard the segment afterwards.
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
	kept := s.CloneInto(repHeaders.Get().(*segment.Segment), repEvents.Get(len(s.Events)))
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
// pre-grown to the stream's segment count, through execLogs.
func (r *RankReducer) FeedEvents(rank int, events []trace.Event) error {
	nseg := 0
	for i := range events {
		if events[i].Kind == trace.KindMarkBegin {
			nseg++
		}
	}
	if execs := r.out.Execs; cap(execs)-len(execs) < nseg {
		r.out.Execs = append(execLogs.Get(len(execs)+nseg), execs...)
	}
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
