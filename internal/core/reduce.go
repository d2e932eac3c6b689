package core

import (
	"fmt"
	"runtime"

	"repro/internal/segment"
	"repro/internal/trace"
)

// Exec records one execution of a stored segment: which representative
// stands in for it and when it started (paper: segmentExecs).
type Exec struct {
	// ID indexes the owning RankReduced.Stored slice.
	ID int
	// Start is the absolute start time of the execution.
	Start trace.Time
}

// RankReduced is the reduced form of one rank's trace: the representative
// segments plus the (id, start-time) execution log. The paper reduces each
// per-task trace independently before merging, and so do we.
type RankReduced struct {
	Rank   int
	Stored []*segment.Segment
	Execs  []Exec
}

// Reduced is a reduced application trace with the bookkeeping needed by
// the evaluation criteria.
type Reduced struct {
	// Name is the workload name, copied from the input trace.
	Name string
	// Method is the similarity policy that produced the reduction.
	Method string
	// Ranks holds the per-rank reductions, indexed by rank.
	Ranks []RankReduced

	// TotalSegments counts segments over all ranks before reduction.
	TotalSegments int
	// Matches counts segments that matched a stored representative.
	Matches int
	// PossibleMatches counts segments that had any comparable predecessor
	// (total minus the number of distinct pattern classes), the
	// denominator of the degree-of-matching metric.
	PossibleMatches int
}

// DegreeOfMatching returns Matches / PossibleMatches (paper §4.3.2), or 1
// when the workload structure admits no matches at all.
func (r *Reduced) DegreeOfMatching() float64 {
	if r.PossibleMatches == 0 {
		return 1
	}
	return float64(r.Matches) / float64(r.PossibleMatches)
}

// StoredSegments returns the total number of representatives kept across
// all ranks.
func (r *Reduced) StoredSegments() int {
	n := 0
	for i := range r.Ranks {
		n += len(r.Ranks[i].Stored)
	}
	return n
}

// Reduce segments t and reduces every rank's trace with policy p,
// following the paper's algorithm: each new segment is normalized
// relative to its start, compared against the stored representatives of
// its pattern class, and either logged as an execution of a match or
// appended as a new representative.
//
// Ranks are independent (the paper reduces intra-process), so Reduce
// runs the rank-parallel engine over t.Ranks: one RankReducer per rank
// on a worker pool bounded by GOMAXPROCS and the rank count. The output
// is deterministic — per-rank results land in the rank-indexed Ranks
// slice — and byte-identical to the single-threaded reference
// ReduceSequential. Because p is shared by the workers, policies must be
// safe for concurrent use on distinct ranks' segments; every built-in
// policy is stateless and qualifies.
func Reduce(t *trace.Trace, p Policy) (*Reduced, error) {
	src := rankSource{
		at: func(i int) (*trace.RankTrace, error) { return &t.Ranks[i], nil },
		n:  len(t.Ranks),
	}
	c := &collectSink{red: &Reduced{Name: t.Name, Method: p.Name(), Ranks: make([]RankReduced, 0, len(t.Ranks))}}
	workers := max(1, min(runtime.GOMAXPROCS(0), len(t.Ranks)))
	if err := reduceRanks(t.Name, p, src, StreamOptions{Workers: workers}, c); err != nil {
		return nil, err
	}
	return c.red, nil
}

// ReduceSequential is the retained single-threaded reference
// implementation of Reduce: it materializes every segment of every rank,
// then runs the matching loop inline. It exists for parity testing and
// as the baseline the parallel engine is benchmarked against; library
// users should call Reduce.
func ReduceSequential(t *trace.Trace, p Policy) (*Reduced, error) {
	perRank, err := segment.SplitTrace(t)
	if err != nil {
		return nil, err
	}
	red := &Reduced{Name: t.Name, Method: p.Name(), Ranks: make([]RankReduced, len(t.Ranks))}
	for rank, segs := range perRank {
		rr := &red.Ranks[rank]
		rr.Rank = rank
		// One matcher per rank, mirroring the per-rank class index the
		// incremental engine builds.
		m := NewMatcher(p)
		for _, s := range segs {
			red.TotalSegments++
			cls, idx, cs := m.Scan(s)
			if cls != nil {
				red.PossibleMatches++
			}
			if idx >= 0 {
				storedID := cls.StoredID(idx)
				m.Absorb(cls, idx, s)
				rr.Execs = append(rr.Execs, Exec{ID: storedID, Start: s.Start})
				red.Matches++
				continue
			}
			id := len(rr.Stored)
			kept := s.Clone()
			kept.Start = 0
			rr.Stored = append(rr.Stored, kept)
			rr.Execs = append(rr.Execs, Exec{ID: id, Start: s.Start})
			m.Insert(cls, kept, id, cs)
		}
	}
	return red, nil
}

// Reconstruct re-creates an approximate full trace from the reduction:
// for every logged execution the representative's events are replayed
// shifted to the recorded start time, bracketed by the segment markers
// (paper §4.3.3). The result has exactly the same event structure as the
// original trace, with approximated timestamps.
func (r *Reduced) Reconstruct() (*trace.Trace, error) {
	t := trace.New(r.Name, len(r.Ranks))
	for rank := range r.Ranks {
		rr := &r.Ranks[rank]
		rt := &t.Ranks[rank]
		for _, ex := range rr.Execs {
			if ex.ID < 0 || ex.ID >= len(rr.Stored) {
				return nil, fmt.Errorf("core: rank %d exec references segment %d of %d", rank, ex.ID, len(rr.Stored))
			}
			s := rr.Stored[ex.ID]
			rt.Events = append(rt.Events, trace.Event{
				Name: s.Context, Kind: trace.KindMarkBegin, Enter: ex.Start, Exit: ex.Start,
				Peer: trace.NoPeer, Root: trace.NoPeer,
			})
			for _, e := range s.Events {
				abs := e
				abs.Enter += ex.Start
				abs.Exit += ex.Start
				rt.Events = append(rt.Events, abs)
			}
			end := ex.Start + s.End
			rt.Events = append(rt.Events, trace.Event{
				Name: s.Context, Kind: trace.KindMarkEnd, Enter: end, Exit: end,
				Peer: trace.NoPeer, Root: trace.NoPeer,
			})
		}
	}
	return t, nil
}
