// Direct-from-reduced analysis: the EXPERT diagnosis computed straight
// from a reduced trace's representatives and 12-byte execution records,
// without materializing the reconstructed event stream.
//
// The key observation: reconstruction replays a representative's events
// shifted to each execution's start time, so every execution of the same
// representative contributes the *same* per-segment severities, just
// displaced in time. Severities are built from durations and waits —
// differences of timestamps — so the time shift cancels everywhere a
// computation stays within one segment. AnalyzeReduced therefore profiles
// each executed representative once and then:
//
//   - scales the per-location execution times by the representative's
//     execution count instead of re-walking its events per execution;
//   - fixes up the one place where executions interact — the merged-stream
//     exit clipping of each execution's final event against the next
//     execution's first event — in O(execution records);
//   - places only the communication events (typically a small fraction of
//     a trace) at absolute time for the cross-rank pattern pairing.
//
// It runs on the dense engine it shares with Analyze (expert.go):
// locations are interned once, severities accumulate in one rows × ranks
// array, and a profile records the pairing stream of each communication
// event, so the channel of an event is resolved once per representative,
// not once per execution. A first pass validates the execution records,
// profiles the executed representatives and counts every stream as
// execution count × profile events; a second pass places the events into
// streams carved exactly to those counts, so no stream regrows.
//
// Markers follow the reconstruction: Analyze skips marker events, so a
// profile skips any stored in a representative when it computes
// durations, clips, communication events and the first and last event.
// Wall time is the latest stamp reconstruction would emit, and that
// includes markers: the begin marker at each execution's start, the end
// marker at start + End, and the exits of stored markers.
//
// The result is exactly equal to Analyze(Reconstruct()) — all severities
// are sums of integer microsecond differences, exact in float64, so the
// order of accumulation cannot change a bit — at a cost proportional to
// representatives + execution records + communication events instead of
// the full event count. The original map-based engine is kept in
// ref_test.go as the oracle: TestAnalyzeMatchesReference and
// FuzzAnalyzeReduced hold both analyzers to it, and parity_test.go holds
// the whole scorer to the reconstruct-based one for every workload ×
// method.

package expert

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/segment"
	"repro/internal/trace"
)

// repComm is one communication event of a representative, times relative
// to the segment start and the within-segment clip applied to its exit.
type repComm struct {
	rec    commRec
	stream int32
	// last marks the representative's final non-marker event, whose
	// effective exit depends on the following execution.
	last bool
}

// repProfile is what the per-execution pass needs of one executed
// representative.
type repProfile struct {
	// commLo and commHi bound the representative's communication events
	// in the list profile appends them to.
	commLo, commHi int
	// lastRow is the execution row of the final non-marker event, or -1
	// when the representative has no non-marker event.
	lastRow int
	// firstEnter is the first non-marker event's relative enter — the
	// bound the previous execution's final exit is clipped against.
	firstEnter trace.Time
	// lastEnter and lastExit are the final non-marker event's stamps.
	lastEnter, lastExit trace.Time
	// maxExit is the latest relative stamp reconstruction emits for one
	// execution: the begin marker (0), the end marker and every exit.
	maxExit trace.Time
}

// profile summarizes representative s of rank, executed count times,
// appending its communication events to comm, and adds its within-segment
// execution times scaled by count. Within-segment exit clipping is
// shift-invariant, so it is resolved here once; only the final event's
// clip crosses into the next execution.
func (a *analysis) profile(p *repProfile, comm []repComm, rank int, s *segment.Segment, count int) []repComm {
	evs := s.Events
	p.maxExit = max(0, s.End)
	for i := range evs {
		p.maxExit = max(p.maxExit, evs[i].Exit)
	}
	p.lastRow = -1
	p.commLo = len(comm)
	i := nextEvent(evs, 0)
	if i < len(evs) {
		p.firstEnter = evs[i].Enter
	}
	for i < len(evs) {
		e := &evs[i]
		j := nextEvent(evs, i+1)
		loc := a.loc(e.Name)
		// Analyze creates the execution cell of every event, even one
		// whose durations sum to zero, and so must the profile.
		row := a.row(mExecution, loc)
		exit := e.Exit
		last := j == len(evs)
		if last {
			p.lastRow, p.lastEnter, p.lastExit = row, e.Enter, e.Exit
		} else {
			exit = min(exit, evs[j].Enter)
			a.sev[row*a.nRanks+rank] += float64((exit - e.Enter) * trace.Time(count))
		}
		if st := a.stream(rank, e); st >= 0 {
			a.count[st] += count
			comm = append(comm, repComm{
				rec:    commRec{enter: e.Enter, exit: exit, loc: loc, root: e.Root, kind: e.Kind},
				stream: int32(st),
				last:   last,
			})
		}
		i = j
	}
	p.commHi = len(comm)
	return comm
}

// AnalyzeReduced runs the pattern analysis directly over a reduced trace,
// producing the same Diagnosis Analyze would produce for
// r.Reconstruct() without building the reconstruction. See the comment
// at the top of this file for the algorithm.
func AnalyzeReduced(r *core.Reduced) (*Diagnosis, error) {
	a := newAnalysis(len(r.Ranks))
	maxStored, maxExecs, totalStored := 0, 0, 0
	for rank := range r.Ranks {
		maxStored = max(maxStored, len(r.Ranks[rank].Stored))
		maxExecs = max(maxExecs, len(r.Ranks[rank].Execs))
		totalStored += len(r.Ranks[rank].Stored)
	}

	// First pass: validate and count the executions of every
	// representative, profile each executed one, and size the streams.
	counts := make([]int, maxStored)
	profiles := make([]repProfile, totalStored) // rank-major, by stored id
	var comm []repComm
	base := 0
	for rank := range r.Ranks {
		rr := &r.Ranks[rank]
		execs := counts[:len(rr.Stored)]
		clear(execs)
		for _, ex := range rr.Execs {
			if ex.ID < 0 || ex.ID >= len(rr.Stored) {
				return nil, fmt.Errorf("expert: rank %d exec references segment %d of %d",
					rank, ex.ID, len(rr.Stored))
			}
			execs[ex.ID]++
		}
		for id, n := range execs {
			if n > 0 {
				comm = a.profile(&profiles[base+id], comm, rank, rr.Stored[id], n)
			}
		}
		base += len(rr.Stored)
	}
	a.carve()

	// Second pass, per rank: the final-event clip of every execution and
	// the placement of its communication events at absolute time.
	// nextEnter[k] is the absolute enter of the first non-marker event
	// after execution k — the clip bound of its final event, MaxInt64
	// when none follows. A backward sweep computes it, skipping
	// executions of representatives without non-marker events.
	nextEnter := make([]trace.Time, maxExecs)
	var wall trace.Time
	base = 0
	for rank := range r.Ranks {
		rr := &r.Ranks[rank]
		ps := profiles[base : base+len(rr.Stored)]
		base += len(rr.Stored)
		bound := trace.Time(math.MaxInt64)
		for k := len(rr.Execs) - 1; k >= 0; k-- {
			nextEnter[k] = bound
			if p := &ps[rr.Execs[k].ID]; p.lastRow >= 0 {
				bound = rr.Execs[k].Start + p.firstEnter
			}
		}
		for k, ex := range rr.Execs {
			p := &ps[ex.ID]
			wall = max(wall, ex.Start+p.maxExit)
			if p.lastRow < 0 {
				continue
			}
			lastExit := min(ex.Start+p.lastExit, nextEnter[k])
			a.sev[p.lastRow*a.nRanks+rank] += float64(lastExit - (ex.Start + p.lastEnter))
			for _, c := range comm[p.commLo:p.commHi] {
				rec := c.rec
				rec.enter += ex.Start
				if c.last {
					rec.exit = lastExit
				} else {
					rec.exit += ex.Start
				}
				a.streams[c.stream] = append(a.streams[c.stream], rec)
			}
		}
	}
	if err := a.score(); err != nil {
		return nil, err
	}
	return a.diagnosis(r.Name, wall), nil
}
