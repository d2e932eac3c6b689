package expert_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/expert"
	"repro/internal/trace"
)

// TestAnalyzeRecordsFullBytes: the diagnosis Analyze makes carries its
// trace's TRC1 size, equal to trace.EncodedSize, on the catalog traces
// and on the shapes the size walk treats specially; a diagnosis of a
// reduction leaves it 0, so the scorer sizes such a trace itself.
func TestAnalyzeRecordsFullBytes(t *testing.T) {
	mark := func(name string, kind trace.EventKind, at trace.Time) trace.Event {
		return trace.Event{Name: name, Kind: kind, Enter: at, Exit: at, Peer: trace.NoPeer, Root: trace.NoPeer}
	}
	emptyRank := trace.New("empty rank", 2)
	emptyRank.Ranks[0].Events = []trace.Event{
		mark("main.1", trace.KindMarkBegin, 0),
		{Name: "do_work", Kind: trace.KindCompute, Enter: 0, Exit: 7, Peer: trace.NoPeer, Root: trace.NoPeer},
		mark("main.1", trace.KindMarkEnd, 7),
	}
	emptyName := trace.New("", 1)
	emptyName.Ranks[0].Events = []trace.Event{
		mark("", trace.KindMarkBegin, 0),
		{Name: "", Kind: trace.KindCompute, Enter: 0, Exit: 3, Peer: trace.NoPeer, Root: trace.NoPeer},
		mark("", trace.KindMarkEnd, 3),
	}
	traces := []*trace.Trace{trace.New("no ranks", 0), emptyRank, emptyName}
	r := eval.NewRunner()
	for _, name := range eval.AllNames() {
		full, err := r.Trace(name)
		if err != nil {
			t.Fatal(err)
		}
		traces = append(traces, full)
	}
	for _, tr := range traces {
		d, err := expert.Analyze(tr)
		if err != nil {
			t.Fatalf("%q: %v", tr.Name, err)
		}
		if want := trace.EncodedSize(tr); d.FullBytes != want {
			t.Errorf("%q: Analyze recorded %d bytes, EncodedSize is %d", tr.Name, d.FullBytes, want)
		}
		if len(tr.Ranks) == 0 {
			continue
		}
		red, err := core.Reduce(tr, core.NewIterAvg())
		if err != nil {
			t.Fatalf("%q: %v", tr.Name, err)
		}
		rd, err := expert.AnalyzeReduced(red)
		if err != nil {
			t.Fatalf("%q: AnalyzeReduced: %v", tr.Name, err)
		}
		if rd.FullBytes != 0 {
			t.Errorf("%q: AnalyzeReduced recorded %d bytes, want 0", tr.Name, rd.FullBytes)
		}
	}
}
