package core

import (
	"bytes"
	"io"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/matchbench"
	"repro/internal/segment"
	"repro/internal/trace"
)

// buildMultiRankTrace makes an nRanks-rank trace whose per-rank loop
// durations are drawn from rng, so ranks differ and matching is
// non-trivial.
func buildMultiRankTrace(name string, nRanks, iters int, rng *rand.Rand) *trace.Trace {
	t := trace.New(name, nRanks)
	for r := 0; r < nRanks; r++ {
		now := trace.Time(0)
		add := func(e trace.Event) { t.Ranks[r].Events = append(t.Ranks[r].Events, e) }
		for i := 0; i < iters; i++ {
			d := trace.Time(10 + rng.Intn(20))
			add(trace.Event{Name: "main.1", Kind: trace.KindMarkBegin, Enter: now, Exit: now, Peer: trace.NoPeer, Root: trace.NoPeer})
			add(trace.Event{Name: "do_work", Kind: trace.KindCompute, Enter: now, Exit: now + d, Peer: trace.NoPeer, Root: trace.NoPeer})
			now += d
			add(trace.Event{Name: "main.1", Kind: trace.KindMarkEnd, Enter: now, Exit: now, Peer: trace.NoPeer, Root: trace.NoPeer})
			now += 2
		}
	}
	return t
}

// assertSameReduced fails unless a and b are identical reductions:
// equal counters and byte-identical encoded form.
func assertSameReduced(t *testing.T, label string, a, b *Reduced) {
	t.Helper()
	if a.TotalSegments != b.TotalSegments || a.Matches != b.Matches || a.PossibleMatches != b.PossibleMatches {
		t.Errorf("%s: counters differ: (%d,%d,%d) vs (%d,%d,%d)", label,
			a.TotalSegments, a.Matches, a.PossibleMatches,
			b.TotalSegments, b.Matches, b.PossibleMatches)
	}
	var ab, bb bytes.Buffer
	if err := EncodeReduced(&ab, a, 1); err != nil {
		t.Fatalf("%s: encoding a: %v", label, err)
	}
	if err := EncodeReduced(&bb, b, 1); err != nil {
		t.Fatalf("%s: encoding b: %v", label, err)
	}
	if !bytes.Equal(ab.Bytes(), bb.Bytes()) {
		t.Errorf("%s: encoded reductions differ (%d vs %d bytes)", label, ab.Len(), bb.Len())
	}
}

func TestReduceParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	tr := buildMultiRankTrace("multi", 16, 12, rng)
	for _, name := range MethodNames {
		p1, err := DefaultMethod(name)
		if err != nil {
			t.Fatal(err)
		}
		p2, err := DefaultMethod(name)
		if err != nil {
			t.Fatal(err)
		}
		par, err := Reduce(tr, p1)
		if err != nil {
			t.Fatalf("%s: Reduce: %v", name, err)
		}
		seq, err := ReduceSequential(tr, p2)
		if err != nil {
			t.Fatalf("%s: ReduceSequential: %v", name, err)
		}
		assertSameReduced(t, name, par, seq)
	}
}

func TestRankReducerCountersAndFinish(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tr := buildMultiRankTrace("one", 1, 10, rng)
	p := NewAbsDiff(1000) // everything in a class matches
	r := NewRankReducer(0, p)
	if err := r.FeedEvents(tr.Ranks[0].Rank, tr.Ranks[0].Events); err != nil {
		t.Fatalf("FeedEvents: %v", err)
	}
	if r.TotalSegments() != 10 {
		t.Errorf("TotalSegments = %d, want 10", r.TotalSegments())
	}
	if r.Matches() != 9 || r.PossibleMatches() != 9 {
		t.Errorf("Matches, PossibleMatches = %d, %d; want 9, 9", r.Matches(), r.PossibleMatches())
	}
	rr := r.Finish()
	if rr.Rank != 0 || len(rr.Stored) != 1 || len(rr.Execs) != 10 {
		t.Errorf("Finish: rank %d, %d stored, %d execs; want 0, 1, 10", rr.Rank, len(rr.Stored), len(rr.Execs))
	}
	if rr.Stored[0].Start != 0 {
		t.Errorf("stored representative not normalized: start %d", rr.Stored[0].Start)
	}
}

// TestFeedEventsRetainsNoView: FeedEvents keeps nothing that aliases
// the rank it reduced. After it returns, every event of the rank is
// overwritten, names and stamps; Finish must still equal the reduction
// of an untouched copy, also after a second rank's worth of segments
// has been matched against the stored representatives and class
// prototypes.
func TestFeedEventsRetainsNoView(t *testing.T) {
	inputs := map[string][]trace.Event{
		"matchbench": markedEvents(matchbench.Stream(16, 64)),
		"loop":       buildMultiRankTrace("loop", 1, 40, rand.New(rand.NewSource(5))).Ranks[0].Events,
	}
	for _, method := range MethodNames {
		for name, input := range inputs {
			p, err := DefaultMethod(method)
			if err != nil {
				t.Fatal(err)
			}
			events := slices.Clone(input)
			r, ref := NewRankReducer(0, p), NewRankReducer(0, p)
			if err := r.FeedEvents(0, events); err != nil {
				t.Fatal(err)
			}
			for i := range events {
				events[i] = trace.Event{Name: "overwritten", Kind: events[i].Kind, Enter: -1 << 40, Exit: 1 << 40}
			}
			if err := ref.FeedEvents(0, slices.Clone(input)); err != nil {
				t.Fatal(err)
			}
			// A second pass matches against what the first one kept.
			for _, rd := range []*RankReducer{r, ref} {
				if err := rd.FeedEvents(0, slices.Clone(input)); err != nil {
					t.Fatal(err)
				}
			}
			reduced := func(rd *RankReducer) *Reduced {
				return &Reduced{Name: name, Method: method, Ranks: []RankReduced{rd.Finish()},
					TotalSegments: rd.TotalSegments(), Matches: rd.Matches(), PossibleMatches: rd.PossibleMatches()}
			}
			assertSameReduced(t, method+"/"+name, reduced(r), reduced(ref))
		}
	}
}

func TestRankReducerFeedMatchesBatchPerRank(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tr := buildMultiRankTrace("one", 1, 20, rng)
	segs, err := segment.Split(&tr.Ranks[0])
	if err != nil {
		t.Fatal(err)
	}
	r := NewRankReducer(0, NewRelDiff(0.3))
	for _, s := range segs {
		r.Feed(s)
	}
	streamed := &Reduced{Name: tr.Name, Method: "relDiff", Ranks: []RankReduced{r.Finish()},
		TotalSegments: r.TotalSegments(), Matches: r.Matches(), PossibleMatches: r.PossibleMatches()}
	batch, err := ReduceSequential(tr, NewRelDiff(0.3))
	if err != nil {
		t.Fatal(err)
	}
	assertSameReduced(t, "relDiff", streamed, batch)
}

// TestReduceStreamMatchesBatch: the pipeline over a decoder of the
// encoded trace writes what the sequential reference reduces, and its
// stats carry the reference's counters.
func TestReduceStreamMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	tr := buildMultiRankTrace("streamed", 8, 15, rng)
	for _, name := range []string{"avgWave", "iter_avg", "euclidean"} {
		p1, _ := DefaultMethod(name)
		p2, _ := DefaultMethod(name)
		var streamed bytes.Buffer
		st, err := ReduceStreamToWriterOpts(decoderOf(t, tr), p1, &streamed, 1, StreamOptions{})
		if err != nil {
			t.Fatalf("%s: ReduceStreamToWriterOpts: %v", name, err)
		}
		batch, err := ReduceSequential(tr, p2)
		if err != nil {
			t.Fatalf("%s: ReduceSequential: %v", name, err)
		}
		if st.TotalSegments != batch.TotalSegments || st.Matches != batch.Matches || st.PossibleMatches != batch.PossibleMatches {
			t.Errorf("%s: counters differ: (%d,%d,%d) vs (%d,%d,%d)", name,
				st.TotalSegments, st.Matches, st.PossibleMatches,
				batch.TotalSegments, batch.Matches, batch.PossibleMatches)
		}
		var want bytes.Buffer
		if err := EncodeReduced(&want, batch, 1); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(streamed.Bytes(), want.Bytes()) {
			t.Errorf("%s: streamed and sequential reductions differ (%d vs %d bytes)", name, streamed.Len(), want.Len())
		}
	}
}

func TestReduceStreamPropagatesErrors(t *testing.T) {
	// A rank with an unclosed segment must fail the whole stream.
	tr := trace.New("bad", 2)
	tr.Ranks[0].Events = []trace.Event{
		{Name: "main.1", Kind: trace.KindMarkBegin, Peer: trace.NoPeer, Root: trace.NoPeer},
		{Name: "w", Kind: trace.KindCompute, Exit: 5, Peer: trace.NoPeer, Root: trace.NoPeer},
		{Name: "main.1", Kind: trace.KindMarkEnd, Enter: 6, Exit: 6, Peer: trace.NoPeer, Root: trace.NoPeer},
	}
	tr.Ranks[1].Events = []trace.Event{
		{Name: "main.1", Kind: trace.KindMarkBegin, Peer: trace.NoPeer, Root: trace.NoPeer},
	}
	if _, err := ReduceStreamToWriterOpts(decoderOf(t, tr), NewIterAvg(), io.Discard, 1, StreamOptions{}); err == nil {
		t.Error("ReduceStreamToWriterOpts with unclosed segment: no error")
	}
	// The parallel batch driver must report it too.
	if _, err := Reduce(tr, NewIterAvg()); err == nil {
		t.Error("Reduce with unclosed segment: no error")
	}
}
