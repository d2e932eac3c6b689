package core_test

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/segment"
	"repro/internal/trace"
)

// TestEncodedReducedSizeMatches holds the TRR1 size walk to the bytes
// EncodeReduced writes: on every catalog trace reduced by the nine
// methods at their default thresholds, and on the shapes the walk must
// count exactly — no ranks, a rank with nothing stored or executed, a
// stored segment without events, a context that is also an event name,
// and non-ASCII names.
func TestEncodedReducedSizeMatches(t *testing.T) {
	var cases []*core.Reduced
	r := eval.NewRunner()
	for _, name := range eval.AllNames() {
		full, err := r.Trace(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, method := range core.MethodNames {
			p, err := core.DefaultMethod(method)
			if err != nil {
				t.Fatal(err)
			}
			red, err := core.Reduce(full, p)
			if err != nil {
				t.Fatalf("reducing %s with %s: %v", name, method, err)
			}
			cases = append(cases, red)
		}
	}
	ev := func(name string) trace.Event {
		return trace.Event{Name: name, Kind: trace.KindCompute, Enter: 0, Exit: 1, Peer: trace.NoPeer, Root: trace.NoPeer}
	}
	seg := func(context string, events ...trace.Event) *segment.Segment {
		return &segment.Segment{Context: context, End: 2, Weight: 1, Events: events}
	}
	cases = append(cases,
		&core.Reduced{Name: "no ranks", Method: "avgWave"},
		&core.Reduced{Name: "empty rank", Method: "avgWave", Ranks: []core.RankReduced{
			{Rank: 0},
			{Rank: 1, Stored: []*segment.Segment{seg("main.1", ev("do_work"))}, Execs: []core.Exec{{ID: 0, Start: 5}}},
		}},
		&core.Reduced{Name: "eventless segment", Method: "avgWave", Ranks: []core.RankReduced{
			{Rank: 0, Stored: []*segment.Segment{seg("main.1"), seg("main.2", ev("do_work"))},
				Execs: []core.Exec{{ID: 0, Start: 0}, {ID: 1, Start: 2}, {ID: 0, Start: 4}}},
		}},
		&core.Reduced{Name: "context named like an event", Method: "avgWave", Ranks: []core.RankReduced{
			{Rank: 0, Stored: []*segment.Segment{seg("do_work", ev("do_work"), ev("MPI_Barrier"))}, Execs: []core.Exec{{ID: 0, Start: 0}}},
			{Rank: 1, Stored: []*segment.Segment{seg("MPI_Barrier", ev("do_work"))}, Execs: []core.Exec{{ID: 0, Start: 0}}},
		}},
		&core.Reduced{Name: "größe", Method: "méthode", Ranks: []core.RankReduced{
			{Rank: 0, Stored: []*segment.Segment{seg("höhe.1", ev("計算"), ev("通信"))}, Execs: []core.Exec{{ID: 0, Start: 0}}},
		}},
	)
	for _, red := range cases {
		var buf bytes.Buffer
		if err := core.EncodeReduced(&buf, red, 1); err != nil {
			t.Fatalf("%s/%s: EncodeReduced: %v", red.Name, red.Method, err)
		}
		if got := core.EncodedReducedSize(red); got != int64(buf.Len()) {
			t.Errorf("%s/%s: EncodedReducedSize = %d, EncodeReduced wrote %d", red.Name, red.Method, got, buf.Len())
		}
	}
}
