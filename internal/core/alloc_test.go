package core

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/matchbench"
	"repro/internal/segment"
	"repro/internal/trace"
)

// Steady-state allocation gates for the matcher hot path. The slab
// refactor's allocation discipline — candidate state prepared into the
// matcher's reusable scratch, kernels reading slab rows in place — is
// pinned here with testing.AllocsPerRun: once a class is warm,
// Matcher.Scan, RankReducer.Feed and RankReducer.FeedEvents on matching
// candidates must not allocate at all, for every method (Scan and Feed
// under both deprecated match modes), and neither may a warm
// approximation distance. A regression to per-scan garbage shows up as
// a hard test failure, not a quiet benchmark drift.

// raceEnabled reports a build with the race detector (race_test.go).
var raceEnabled bool

const (
	allocClasses = 64
	allocCands   = 128
)

var allocModes = []MatchMode{MatchModeExact, MatchModeAuto}

// warmAllocMatcher builds a matcher over the shared matchbench class,
// inserts every representative, and runs one full warm pass over the
// exact candidate sequence the gate will replay, so every lazily grown
// buffer (prepared-vector scratch, wavelet transform scratch) reaches
// steady-state capacity before allocations are counted.
func warmAllocMatcher(t *testing.T, method string, mode MatchMode) (*Matcher, []*segment.Segment) {
	t.Helper()
	p, err := DefaultMethod(method)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMatcherMode(p, mode)
	id := 0
	for _, r := range matchbench.Reps(allocClasses) {
		cls, idx, cs := m.Scan(r)
		if idx >= 0 {
			m.Absorb(cls, idx, r)
			continue
		}
		kept := r.Clone()
		kept.Start = 0
		m.Insert(cls, kept, id, cs)
		id++
	}
	cands := matchbench.Candidates(allocClasses, allocCands)
	for _, c := range cands {
		m.Scan(c)
	}
	return m, cands
}

// TestScanSteadyStateAllocFree: a warm Matcher.Scan allocates nothing,
// for all nine methods under every match mode.
func TestScanSteadyStateAllocFree(t *testing.T) {
	for _, method := range MethodNames {
		for _, mode := range allocModes {
			t.Run(method+"/"+mode.String(), func(t *testing.T) {
				m, cands := warmAllocMatcher(t, method, mode)
				avg := testing.AllocsPerRun(10, func() {
					for _, c := range cands {
						m.Scan(c)
					}
				})
				if avg != 0 {
					t.Errorf("%s/%s: warm Scan allocates %.1f objects per %d-candidate pass, want 0",
						method, mode, avg, len(cands))
				}
			})
		}
	}
}

// TestFeedSteadyStateAllocFree: a warm RankReducer.Feed of matching
// candidates allocates nothing once the execution log has capacity —
// the reducer's steady state on a long homogeneous stream.
func TestFeedSteadyStateAllocFree(t *testing.T) {
	for _, method := range MethodNames {
		for _, mode := range allocModes {
			t.Run(method+"/"+mode.String(), func(t *testing.T) {
				p, err := DefaultMethod(method)
				if err != nil {
					t.Fatal(err)
				}
				r := &RankReducer{m: NewMatcherMode(p, mode)}
				for _, s := range matchbench.Stream(allocClasses, allocCands) {
					r.Feed(s)
				}
				cands := matchbench.Candidates(allocClasses, allocCands)
				for _, s := range cands {
					r.Feed(s)
				}
				// Every gated candidate matches a stored representative
				// (the stream warm-up stored the centers), so Feed's only
				// append target is the execution log: give it the whole
				// gate's capacity up front, as FeedEvents does per rank.
				const runs = 10
				r.out.Execs = slices.Grow(r.out.Execs, (runs+1)*len(cands))
				stored := len(r.out.Stored)
				avg := testing.AllocsPerRun(runs, func() {
					for _, s := range cands {
						r.Feed(s)
					}
				})
				if avg != 0 {
					t.Errorf("%s/%s: warm Feed allocates %.1f objects per %d-candidate pass, want 0",
						method, mode, avg, len(cands))
				}
				if got := len(r.out.Stored); got != stored {
					t.Fatalf("%s/%s: gate stored %d new representatives, want 0 (workload not steady-state)",
						method, mode, got-stored)
				}
			})
		}
	}
}

// markedEvents lays segs out as one rank's event stream, each segment
// between its begin and end markers at its own Start, as a decoded
// trace holds it.
func markedEvents(segs []*segment.Segment) []trace.Event {
	var evs []trace.Event
	for _, s := range segs {
		mark := trace.Event{Name: s.Context, Kind: trace.KindMarkBegin, Enter: s.Start, Exit: s.Start, Peer: trace.NoPeer, Root: trace.NoPeer}
		evs = append(evs, mark)
		for _, e := range s.Events {
			e.Enter += s.Start
			e.Exit += s.Start
			evs = append(evs, e)
		}
		mark.Kind, mark.Enter, mark.Exit = trace.KindMarkEnd, s.Start+s.End, s.Start+s.End
		evs = append(evs, mark)
	}
	return evs
}

// TestFeedEventsSteadyStateAllocFree: a warm RankReducer.FeedEvents over
// a rank of matching segments allocates nothing. Every segment reaches
// the matcher as a view through the reducer's one header, and a match
// copies nothing.
func TestFeedEventsSteadyStateAllocFree(t *testing.T) {
	events := markedEvents(matchbench.Candidates(allocClasses, allocCands))
	for _, method := range MethodNames {
		t.Run(method, func(t *testing.T) {
			p, err := DefaultMethod(method)
			if err != nil {
				t.Fatal(err)
			}
			r := NewRankReducer(0, p)
			for _, s := range matchbench.Stream(allocClasses, allocCands) {
				r.Feed(s)
			}
			if err := r.FeedEvents(0, events); err != nil {
				t.Fatal(err)
			}
			// AllocsPerRun makes one extra warm-up call.
			const runs = 10
			r.out.Execs = slices.Grow(r.out.Execs, (runs+1)*allocCands)
			stored := len(r.out.Stored)
			avg := testing.AllocsPerRun(runs, func() {
				if err := r.FeedEvents(0, events); err != nil {
					t.Fatal(err)
				}
			})
			if avg != 0 {
				t.Errorf("%s: warm FeedEvents allocates %.1f objects per %d-segment rank, want 0",
					method, avg, allocCands)
			}
			if got := len(r.out.Stored); got != stored {
				t.Fatalf("%s: gate stored %d new representatives, want 0 (workload not steady-state)",
					method, got-stored)
			}
		})
	}
}

// TestApproxDistSteadyStateAllocFree: a warm ApproximationDistanceReduced
// allocates nothing, because its stamp-error buffer comes from a pool.
// The race detector makes sync.Pool drop items at random, so the gate
// is skipped there.
func TestApproxDistSteadyStateAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	full := buildMultiRankTrace("dist", 4, 64, rand.New(rand.NewSource(3)))
	for _, method := range MethodNames {
		p, err := DefaultMethod(method)
		if err != nil {
			t.Fatal(err)
		}
		red, err := Reduce(full, p)
		if err != nil {
			t.Fatal(err)
		}
		avg := testing.AllocsPerRun(10, func() {
			if _, err := ApproximationDistanceReduced(full, red, 0.9); err != nil {
				t.Fatal(err)
			}
		})
		if avg != 0 {
			t.Errorf("%s: warm ApproximationDistanceReduced allocates %.1f objects, want 0", method, avg)
		}
	}
}
