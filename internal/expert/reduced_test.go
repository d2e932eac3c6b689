package expert

import (
	"testing"

	"repro/internal/core"
	"repro/internal/segment"
	"repro/internal/trace"
)

// seg builds a stored representative with the given relative events.
func seg(ctx string, end trace.Time, events ...trace.Event) *segment.Segment {
	return &segment.Segment{Context: ctx, End: end, Weight: 1, Events: events}
}

func compute(name string, enter, exit trace.Time) trace.Event {
	return trace.Event{Name: name, Kind: trace.KindCompute, Enter: enter, Exit: exit,
		Peer: trace.NoPeer, Root: trace.NoPeer}
}

// analyzeBoth runs the direct analyzer and the reference engine over the
// reconstruction, and fails on any error.
func analyzeBoth(t *testing.T, red *core.Reduced) (direct, ref *Diagnosis) {
	t.Helper()
	direct, err := AnalyzeReduced(red)
	if err != nil {
		t.Fatalf("AnalyzeReduced: %v", err)
	}
	recon, err := red.Reconstruct()
	if err != nil {
		t.Fatalf("Reconstruct: %v", err)
	}
	ref, err = refAnalyze(recon)
	if err != nil {
		t.Fatalf("refAnalyze(Reconstruct()): %v", err)
	}
	return direct, ref
}

// requireEqual asserts exact diagnosis equality, and that every vector
// of direct is exactly NumRanks long with no spare capacity, so an
// append by a caller cannot write into another cell.
func requireEqual(t *testing.T, direct, ref *Diagnosis) {
	t.Helper()
	if direct.Name != ref.Name || direct.NumRanks != ref.NumRanks || direct.WallTime != ref.WallTime {
		t.Fatalf("metadata differs: direct {%q %d %g} vs reference {%q %d %g}",
			direct.Name, direct.NumRanks, direct.WallTime, ref.Name, ref.NumRanks, ref.WallTime)
	}
	if direct.Sev == nil {
		t.Fatal("direct diagnosis has a nil severity map")
	}
	if len(direct.Sev) != len(ref.Sev) {
		t.Fatalf("cell sets differ: direct %v vs reference %v", direct.Keys(), ref.Keys())
	}
	for k, rv := range ref.Sev {
		dv, ok := direct.Sev[k]
		if !ok {
			t.Fatalf("direct diagnosis is missing cell %v", k)
		}
		if len(dv) != direct.NumRanks || cap(dv) != direct.NumRanks {
			t.Fatalf("cell %v: vector len %d cap %d, want both %d", k, len(dv), cap(dv), direct.NumRanks)
		}
		for i := range rv {
			if dv[i] != rv[i] {
				t.Fatalf("cell %v rank %d: direct %g vs reference %g", k, i, dv[i], rv[i])
			}
		}
	}
}

// TestAnalyzeReducedBoundaryClipping plants a representative whose final
// event overruns the next execution's start, so the merged-stream clip
// crosses the execution boundary — the one place per-execution state
// matters in the scaled analysis.
func TestAnalyzeReducedBoundaryClipping(t *testing.T) {
	// Representative: work spans 0..80 but executions start every 50, so
	// each execution's final (and only) event is clipped by its successor.
	rep := seg("main.1", 80, compute("do_work", 0, 80))
	red := &core.Reduced{
		Name: "boundary", Method: "test",
		Ranks: []core.RankReduced{{
			Rank:   0,
			Stored: []*segment.Segment{rep},
			Execs:  []core.Exec{{ID: 0, Start: 0}, {ID: 0, Start: 50}, {ID: 0, Start: 100}},
		}},
		TotalSegments: 3,
	}
	direct, ref := analyzeBoth(t, red)
	requireEqual(t, direct, ref)
	// Two clipped executions (50 each) plus one final unclipped (80).
	got := direct.Total(Key{Metric: MetricExecution, Location: "do_work"})
	if got != 180 {
		t.Fatalf("do_work total = %g, want 180 (two boundary-clipped executions + one full)", got)
	}
}

// TestAnalyzeReducedEmptyAndUnexecuted covers segments with no events
// (markers only), representatives that are never executed (possible in a
// decoded file), and the wall-time contribution of end markers.
func TestAnalyzeReducedEmptyAndUnexecuted(t *testing.T) {
	red := &core.Reduced{
		Name: "sparse", Method: "test",
		Ranks: []core.RankReduced{{
			Rank: 0,
			Stored: []*segment.Segment{
				seg("init", 10), // executed, but empty
				seg("main.1", 30, compute("do_work", 5, 25)), // executed twice
				seg("orphan", 99, compute("never", 0, 9)),    // never executed
			},
			Execs: []core.Exec{{ID: 0, Start: 0}, {ID: 1, Start: 10}, {ID: 1, Start: 40}},
		}},
		TotalSegments: 3,
	}
	direct, ref := analyzeBoth(t, red)
	requireEqual(t, direct, ref)
	if _, ok := direct.Sev[Key{Metric: MetricExecution, Location: "never"}]; ok {
		t.Fatal("unexecuted representative leaked into the diagnosis")
	}
	// Last execution ends at 40+30=70 (end marker), the trace wall time.
	if direct.WallTime != 70 {
		t.Fatalf("WallTime = %g, want 70", direct.WallTime)
	}
}

// TestAnalyzeReducedBadExec mirrors Reconstruct's id validation.
func TestAnalyzeReducedBadExec(t *testing.T) {
	red := &core.Reduced{
		Name: "bad", Method: "test",
		Ranks: []core.RankReduced{{
			Rank:   0,
			Stored: []*segment.Segment{seg("main.1", 10)},
			Execs:  []core.Exec{{ID: 3, Start: 0}},
		}},
	}
	if _, err := AnalyzeReduced(red); err == nil {
		t.Fatal("AnalyzeReduced accepted an out-of-range execution id")
	}
}

// TestAnalyzeReducedMarkerInSegment stores a marker event inside a
// representative, which the reduced decoders accept. Reconstruction
// replays it and Analyze skips it, so it must neither become a location
// nor bound the clip of the event before it.
func TestAnalyzeReducedMarkerInSegment(t *testing.T) {
	inner := trace.Event{Name: "inner", Kind: trace.KindMarkBegin, Enter: 4, Exit: 4,
		Peer: trace.NoPeer, Root: trace.NoPeer}
	rep := seg("main.1", 10, compute("w", 0, 6), inner, compute("v", 5, 9))
	red := &core.Reduced{
		Name: "marker", Method: "test",
		Ranks: []core.RankReduced{{
			Rank:   0,
			Stored: []*segment.Segment{rep},
			Execs:  []core.Exec{{ID: 0, Start: 0}, {ID: 0, Start: 20}},
		}},
		TotalSegments: 2,
	}
	direct, ref := analyzeBoth(t, red)
	requireEqual(t, direct, ref)
	// w is clipped at v's enter (5), not at the marker (4).
	if got := direct.Total(Key{Metric: MetricExecution, Location: "w"}); got != 10 {
		t.Fatalf("w total = %g, want 10", got)
	}
}

// TestAnalyzeReducedNegativeEnd stores a representative whose end and
// event stamps are negative. The reconstruction's begin marker sits at
// the execution start, so the wall time is that start, not the start
// plus the (negative) end.
func TestAnalyzeReducedNegativeEnd(t *testing.T) {
	rep := seg("main.1", -5, compute("w", -8, -7))
	red := &core.Reduced{
		Name: "negative", Method: "test",
		Ranks: []core.RankReduced{{
			Rank:   0,
			Stored: []*segment.Segment{rep},
			Execs:  []core.Exec{{ID: 0, Start: 8}},
		}},
		TotalSegments: 1,
	}
	direct, ref := analyzeBoth(t, red)
	requireEqual(t, direct, ref)
	if direct.WallTime != 8 {
		t.Fatalf("WallTime = %g, want 8", direct.WallTime)
	}
}

// TestAnalyzeReducedAllocsFlatInExecutions pins the exact stream sizing:
// placing an execution's events allocates nothing, so the allocations of
// a diagnosis do not grow with the execution count. Each representative
// sends twice on one channel, the case a per-representative presize
// misses.
func TestAnalyzeReducedAllocsFlatInExecutions(t *testing.T) {
	p2p := func(kind trace.EventKind, peer int32, enter, exit trace.Time) trace.Event {
		return trace.Event{Name: kind.String(), Kind: kind, Enter: enter, Exit: exit, Peer: peer, Tag: 7, Root: trace.NoPeer}
	}
	pingPong := func(execs int) *core.Reduced {
		red := &core.Reduced{Name: "pingpong", Method: "test", Ranks: []core.RankReduced{
			{Rank: 0, Stored: []*segment.Segment{seg("main.1", 40,
				p2p(trace.KindSend, 1, 0, 5), p2p(trace.KindSend, 1, 5, 10), p2p(trace.KindRecv, 1, 10, 30))}},
			{Rank: 1, Stored: []*segment.Segment{seg("main.1", 40,
				p2p(trace.KindRecv, 0, 0, 8), p2p(trace.KindRecv, 0, 8, 12), p2p(trace.KindSend, 0, 20, 25))}},
		}}
		for r := range red.Ranks {
			for k := range execs {
				red.Ranks[r].Execs = append(red.Ranks[r].Execs, core.Exec{ID: 0, Start: trace.Time(k) * 50})
			}
		}
		return red
	}
	allocs := func(execs int) float64 {
		red := pingPong(execs)
		return testing.AllocsPerRun(10, func() {
			if _, err := AnalyzeReduced(red); err != nil {
				t.Fatal(err)
			}
		})
	}
	if few, many := allocs(4), allocs(4000); many != few {
		t.Fatalf("AnalyzeReduced allocates %v times for 4 executions but %v for 4000", few, many)
	}
}
