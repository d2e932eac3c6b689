package segment

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/trace"
)

func mark(ctx string, kind trace.EventKind, at trace.Time) trace.Event {
	return trace.Event{Name: ctx, Kind: kind, Enter: at, Exit: at, Peer: trace.NoPeer, Root: trace.NoPeer}
}

func comp(name string, enter, exit trace.Time) trace.Event {
	return trace.Event{Name: name, Kind: trace.KindCompute, Enter: enter, Exit: exit, Peer: trace.NoPeer, Root: trace.NoPeer}
}

// paperTrace reproduces the segment structure of the paper's Figure 2:
// three main.1 segments containing do_work and MPI_Allgather.
func paperTrace() *trace.RankTrace {
	send := func(enter, exit trace.Time) trace.Event {
		return trace.Event{Name: "MPI_Allgather", Kind: trace.KindAllgather,
			Enter: enter, Exit: exit, Peer: trace.NoPeer, Tag: 0, Bytes: 8, Root: -1}
	}
	return &trace.RankTrace{Rank: 0, Events: []trace.Event{
		mark("main.1", trace.KindMarkBegin, 100),
		comp("do_work", 101, 120),
		send(121, 149),
		mark("main.1", trace.KindMarkEnd, 150),
		mark("main.1", trace.KindMarkBegin, 152),
		comp("do_work", 153, 192),
		send(193, 201),
		mark("main.1", trace.KindMarkEnd, 203),
		mark("main.1", trace.KindMarkBegin, 210),
		comp("do_work", 211, 227),
		send(228, 258),
		mark("main.1", trace.KindMarkEnd, 259),
	}}
}

func TestSplitBasic(t *testing.T) {
	segs, err := Split(paperTrace())
	if err != nil {
		t.Fatalf("Split: %v", err)
	}
	if len(segs) != 3 {
		t.Fatalf("got %d segments, want 3", len(segs))
	}
	s0 := segs[0]
	if s0.Context != "main.1" || s0.Rank != 0 {
		t.Errorf("segment identity wrong: %+v", s0)
	}
	if s0.Start != 100 {
		t.Errorf("Start = %d, want 100", s0.Start)
	}
	if s0.End != 50 {
		t.Errorf("End = %d, want 50 (relative)", s0.End)
	}
	if len(s0.Events) != 2 {
		t.Fatalf("segment has %d events, want 2", len(s0.Events))
	}
	// Event times must be rebased relative to segment start.
	if s0.Events[0].Enter != 1 || s0.Events[0].Exit != 20 {
		t.Errorf("do_work rebased to (%d,%d), want (1,20)", s0.Events[0].Enter, s0.Events[0].Exit)
	}
	if s0.Events[1].Enter != 21 || s0.Events[1].Exit != 49 {
		t.Errorf("allgather rebased to (%d,%d), want (21,49)", s0.Events[1].Enter, s0.Events[1].Exit)
	}
	if s0.Weight != 1 {
		t.Errorf("Weight = %d, want 1", s0.Weight)
	}
}

func TestSplitErrors(t *testing.T) {
	cases := []struct {
		name   string
		events []trace.Event
		want   string
	}{
		{"nested", []trace.Event{
			mark("a", trace.KindMarkBegin, 0), mark("b", trace.KindMarkBegin, 1),
		}, "nested"},
		{"end without begin", []trace.Event{
			mark("a", trace.KindMarkEnd, 0),
		}, "without begin"},
		{"context mismatch", []trace.Event{
			mark("a", trace.KindMarkBegin, 0), mark("b", trace.KindMarkEnd, 1),
		}, "does not match"},
		{"event outside", []trace.Event{
			comp("w", 0, 1),
		}, "outside"},
		{"never closed", []trace.Event{
			mark("a", trace.KindMarkBegin, 0), comp("w", 1, 2),
		}, "never closed"},
	}
	for _, c := range cases {
		_, err := Split(&trace.RankTrace{Rank: 3, Events: c.events})
		if err == nil {
			t.Errorf("%s: want error", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

func TestSignatureAndComparable(t *testing.T) {
	segs, err := Split(paperTrace())
	if err != nil {
		t.Fatalf("Split: %v", err)
	}
	if segs[0].Sig() != segs[1].Sig() || !segs[0].Comparable(segs[1]) {
		t.Error("same-shape segments must be comparable with equal signatures")
	}
	// Different context.
	other := segs[1].Clone()
	other.Context = "main.2"
	other.ResetSig()
	if segs[0].Comparable(other) {
		t.Error("different contexts must not be comparable")
	}
	// Different event count.
	shorter := segs[1].Clone()
	shorter.Events = shorter.Events[:1]
	shorter.ResetSig()
	if segs[0].Comparable(shorter) {
		t.Error("different event counts must not be comparable")
	}
	// Different message parameter (paper: "all message passing calls and
	// parameters are the same").
	diffBytes := segs[1].Clone()
	diffBytes.Events[1].Bytes = 1024
	diffBytes.ResetSig()
	if segs[0].Comparable(diffBytes) {
		t.Error("different message sizes must not be comparable")
	}
	// Timing differences must NOT affect comparability.
	if segs[0].Sig() == diffBytes.Sig() {
		t.Error("signature must cover message parameters")
	}
	// The signature covers exactly what Comparable compares: every
	// identity field changes it, no timing field does.
	base := segs[1]
	for _, c := range []struct {
		field    string
		edit     func(s *Segment)
		identity bool
	}{
		{"Context", func(s *Segment) { s.Context = "main.2" }, true},
		{"event count", func(s *Segment) { s.Events = s.Events[:1] }, true},
		{"Name", func(s *Segment) { s.Events[1].Name = "MPI_Allgatherv" }, true},
		{"Kind", func(s *Segment) { s.Events[1].Kind = trace.KindAlltoall }, true},
		{"Peer", func(s *Segment) { s.Events[1].Peer = 3 }, true},
		{"Tag", func(s *Segment) { s.Events[1].Tag = 1 }, true},
		{"Bytes", func(s *Segment) { s.Events[1].Bytes = 16 }, true},
		{"Root", func(s *Segment) { s.Events[1].Root = 0 }, true},
		{"Enter", func(s *Segment) { s.Events[0].Enter += 5 }, false},
		{"Exit", func(s *Segment) { s.Events[1].Exit += 5 }, false},
		{"Start", func(s *Segment) { s.Start += 7 }, false},
		{"End", func(s *Segment) { s.End += 7 }, false},
		{"Weight", func(s *Segment) { s.Weight = 4 }, false},
	} {
		e := base.Clone()
		c.edit(e)
		e.ResetSig()
		if changed := e.Sig() != base.Sig(); changed != c.identity {
			t.Errorf("changing %s: signature changed = %v, want %v", c.field, changed, c.identity)
		}
		if e.Comparable(base) == c.identity {
			t.Errorf("changing %s: Comparable = %v, want %v", c.field, !c.identity, !c.identity)
		}
	}
	// Names that differ only in their last byte, on both sides of the
	// 8-byte word boundary.
	for _, n := range []int{7, 8, 9, 16} {
		a, b := base.Clone(), base.Clone()
		prefix := strings.Repeat("x", n-1)
		a.Events[0].Name, b.Events[0].Name = prefix+"a", prefix+"b"
		a.ResetSig()
		b.ResetSig()
		if a.Sig() == b.Sig() {
			t.Errorf("%d-byte names %q and %q share a signature", n, a.Events[0].Name, b.Events[0].Name)
		}
	}
}

// TestMeasurementsLayout pins the canonical measurement vector order to
// the paper's worked example: segment s2 of Figure 2 yields
// (49, 1, 17, 18, 48) — segment end first, then event enter/exit pairs.
func TestMeasurementsLayout(t *testing.T) {
	s := &Segment{
		Context: "main.1", End: 49,
		Events: []trace.Event{comp("do_work", 1, 17), comp("MPI_Allgather", 18, 48)},
	}
	got := s.Measurements(nil)
	want := []float64{49, 1, 17, 18, 48}
	if len(got) != len(want) {
		t.Fatalf("Measurements = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Measurements = %v, want %v", got, want)
		}
	}
	if s.NumMeasurements() != 5 {
		t.Errorf("NumMeasurements = %d, want 5", s.NumMeasurements())
	}
}

// TestStampVectorLayout pins the wavelet input vector: leading relative
// start (0), the stamps, and the segment end (paper §3.2.1).
func TestStampVectorLayout(t *testing.T) {
	s := &Segment{
		Context: "main.1", End: 50,
		Events: []trace.Event{comp("do_work", 1, 20), comp("MPI_Allgather", 21, 49)},
	}
	got := s.StampVector(nil)
	want := []float64{0, 1, 20, 21, 49, 50}
	if len(got) != len(want) {
		t.Fatalf("StampVector = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("StampVector = %v, want %v", got, want)
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	segs, _ := Split(paperTrace())
	c := segs[0].Clone()
	c.Events[0].Enter = 999
	if segs[0].Events[0].Enter == 999 {
		t.Error("Clone must deep-copy events")
	}
}

func TestSplitTrace(t *testing.T) {
	tr := trace.New("t", 2)
	for r := 0; r < 2; r++ {
		tr.Ranks[r].Events = paperTrace().Events
	}
	perRank, err := SplitTrace(tr)
	if err != nil {
		t.Fatalf("SplitTrace: %v", err)
	}
	if len(perRank) != 2 || len(perRank[0]) != 3 || len(perRank[1]) != 3 {
		t.Errorf("unexpected shape: %d ranks", len(perRank))
	}
	if perRank[1][0].Rank != 1 {
		t.Errorf("rank not propagated: %d", perRank[1][0].Rank)
	}
}

// TestQuickSplitPreservesEvents: for random well-formed marker streams,
// splitting preserves every non-marker event (count and identity) and
// rebasing is exact.
func TestQuickSplitPreservesEvents(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var events []trace.Event
		now := trace.Time(0)
		total := 0
		nSegs := 1 + rng.Intn(8)
		for s := 0; s < nSegs; s++ {
			ctx := []string{"init", "main.1", "main.2.1"}[rng.Intn(3)]
			events = append(events, mark(ctx, trace.KindMarkBegin, now))
			start := now
			n := rng.Intn(5)
			for i := 0; i < n; i++ {
				d := trace.Time(1 + rng.Intn(50))
				events = append(events, comp("w", now, now+d))
				now += d
				total++
			}
			events = append(events, mark(ctx, trace.KindMarkEnd, now))
			_ = start
			now += trace.Time(rng.Intn(10))
		}
		segs, err := Split(&trace.RankTrace{Rank: 0, Events: events})
		if err != nil {
			return false
		}
		if len(segs) != nSegs {
			return false
		}
		got := 0
		for _, s := range segs {
			got += len(s.Events)
			for _, e := range s.Events {
				if e.Enter < 0 || e.Exit > s.End {
					return false // rebased events must lie inside the segment
				}
			}
		}
		return got == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
