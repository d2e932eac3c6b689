package eval

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/expert"
	"repro/internal/trace"
)

// TestScoreReducedErrors holds the concurrent scorer to the error its
// criteria report when they run one after another: a failed distance
// wins over a failed diagnosis. The scorer must return the same text
// whether it sizes the full trace itself or is handed its size, and
// every goroutine it starts must be gone afterwards.
func TestScoreReducedErrors(t *testing.T) {
	r := NewRunner()
	full, err := r.Trace("late_sender")
	if err != nil {
		t.Fatal(err)
	}
	fullDiag, err := r.Diagnosis("late_sender")
	if err != nil {
		t.Fatal(err)
	}
	reduce := func(full *trace.Trace) *core.Reduced {
		t.Helper()
		p, err := core.DefaultMethod("avgWave")
		if err != nil {
			t.Fatal(err)
		}
		red, err := core.Reduce(full, p)
		if err != nil {
			t.Fatalf("reducing %s: %v", full.Name, err)
		}
		return red
	}

	// An exec past the stored segments fails both criteria.
	missing := reduce(full)
	missing.Ranks[2].Execs[1].ID = len(missing.Ranks[2].Stored)
	if _, err := expert.AnalyzeReduced(missing); err == nil {
		t.Fatal("AnalyzeReduced accepted an exec past the stored segments")
	}
	// Dropping the last rank fails the distance, and the diagnosis too:
	// the sends to that rank go unreceived.
	short := reduce(full)
	short.Ranks = short.Ranks[:len(short.Ranks)-1]
	// A send nobody receives passes the distance and fails the diagnosis.
	unmatched := trace.New("unmatched", 2)
	mark := func(kind trace.EventKind, at trace.Time) trace.Event {
		return trace.Event{Name: "main.1", Kind: kind, Enter: at, Exit: at, Peer: trace.NoPeer, Root: trace.NoPeer}
	}
	unmatched.Ranks[0].Events = []trace.Event{
		mark(trace.KindMarkBegin, 0),
		{Name: "MPI_Send", Kind: trace.KindSend, Enter: 1, Exit: 2, Peer: 1, Tag: 3, Bytes: 64, Root: trace.NoPeer},
		mark(trace.KindMarkEnd, 3),
	}
	unmatched.Ranks[1].Events = []trace.Event{
		mark(trace.KindMarkBegin, 0),
		{Name: "do_work", Kind: trace.KindCompute, Enter: 1, Exit: 2, Peer: trace.NoPeer, Root: trace.NoPeer},
		mark(trace.KindMarkEnd, 3),
	}

	cases := []struct {
		name string
		full *trace.Trace
		red  *core.Reduced
		want string
	}{
		{"exec past the stored segments", full, missing,
			"eval: approximation distance late_sender/avgWave: core: rank 2 exec references segment 3 of 3"},
		{"rank count mismatch", full, short,
			"eval: approximation distance late_sender/avgWave: core: rank count mismatch 8 vs 7"},
		{"send without a receive", unmatched, reduce(unmatched),
			"eval: analyzing reduced unmatched/avgWave: expert: channel 0->1 tag 3 has 1 sends but 0 recvs"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			if _, err := EvaluateReduced(c.full, fullDiag, c.red); err == nil || err.Error() != c.want {
				t.Errorf("EvaluateReduced error = %v, want %q", err, c.want)
			}
			fullBytes := int64(1)
			if _, err := scoreReduced(c.full, fullDiag, c.red, &fullBytes); err == nil || err.Error() != c.want {
				t.Errorf("scoreReduced(sized) error = %v, want %q", err, c.want)
			}
			// A joined goroutine may still be on its way out; give it a
			// moment before calling it leaked.
			deadline := time.Now().Add(2 * time.Second)
			for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > base {
				t.Errorf("%d goroutines after scoring, %d before", n, base)
			}
		})
	}
}
