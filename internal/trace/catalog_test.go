package trace_test

import (
	"bytes"
	"sync"
	"testing"

	"repro/internal/eval"
	"repro/internal/trace"
)

var (
	catalogOnce sync.Once
	catalog     []*trace.Trace
	catalogErr  error
)

// catalogTraces returns the study's 20 catalog traces, generated once
// per test binary.
func catalogTraces(tb testing.TB) []*trace.Trace {
	tb.Helper()
	catalogOnce.Do(func() {
		r := eval.NewRunner()
		for _, name := range eval.AllNames() {
			t, err := r.Trace(name)
			if err != nil {
				catalogErr = err
				return
			}
			catalog = append(catalog, t)
		}
	})
	if catalogErr != nil {
		tb.Fatal(catalogErr)
	}
	return catalog
}

// TestEncodedSizeMatchesEncode holds the size walk to the bytes Encode
// writes, on the catalog and on the shapes the walk handles specially:
// no ranks, a rank with no events, an empty-string name, and names
// shared across ranks.
func TestEncodedSizeMatchesEncode(t *testing.T) {
	ev := func(name string, kind trace.EventKind, enter, exit trace.Time) trace.Event {
		return trace.Event{Name: name, Kind: kind, Enter: enter, Exit: exit, Peer: trace.NoPeer, Root: trace.NoPeer}
	}
	sendRecv := trace.New("test", 2)
	sendRecv.Ranks[0].Events = []trace.Event{
		ev("init", trace.KindMarkBegin, 0, 0), ev("setup", trace.KindCompute, 0, 10), ev("init", trace.KindMarkEnd, 10, 10),
		{Name: "MPI_Send", Kind: trace.KindSend, Enter: 10, Exit: 12, Peer: 1, Tag: 3, Bytes: 64, Root: trace.NoPeer},
	}
	sendRecv.Ranks[1].Events = []trace.Event{
		ev("init", trace.KindMarkBegin, 0, 0), ev("setup", trace.KindCompute, 0, 8), ev("init", trace.KindMarkEnd, 8, 8),
		{Name: "MPI_Recv", Kind: trace.KindRecv, Enter: 8, Exit: 25, Peer: 0, Tag: 3, Bytes: 64, Root: trace.NoPeer},
	}
	idleRank := trace.New("idle rank", 3)
	idleRank.Ranks[1].Events = []trace.Event{ev("w", trace.KindCompute, 0, 1)}
	emptyName := trace.New("", 1)
	emptyName.Ranks[0].Events = []trace.Event{ev("", trace.KindCompute, 0, 1), ev("", trace.KindCompute, 1, 2), ev("x", trace.KindCompute, 2, 3)}
	shared := trace.New("shared", 4)
	for i := range shared.Ranks {
		shared.Ranks[i].Events = []trace.Event{ev("do_work", trace.KindCompute, 0, 5), ev("do_work", trace.KindCompute, 5, 9)}
	}
	cases := []*trace.Trace{sendRecv, trace.New("no ranks", 0), idleRank, emptyName, shared}
	for _, tr := range append(cases, catalogTraces(t)...) {
		var buf bytes.Buffer
		if err := trace.Encode(&buf, tr); err != nil {
			t.Fatalf("%q: Encode: %v", tr.Name, err)
		}
		if got := trace.EncodedSize(tr); got != int64(buf.Len()) {
			t.Errorf("%q: EncodedSize = %d, Encode wrote %d", tr.Name, got, buf.Len())
		}
	}
}

// BenchmarkEncodedSize sizes all 20 catalog traces per iteration: the
// full-trace denominator of the file-size criterion, which every scored
// cell needs. It reports the per-event cost.
func BenchmarkEncodedSize(b *testing.B) {
	traces := catalogTraces(b)
	events := 0
	for _, tr := range traces {
		events += tr.NumEvents()
	}
	b.ReportAllocs()
	for b.Loop() {
		for _, tr := range traces {
			trace.EncodedSize(tr)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*events), "ns/event")
}
