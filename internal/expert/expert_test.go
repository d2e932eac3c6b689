package expert

import (
	"fmt"
	"testing"

	"repro/internal/trace"
)

// builder assembles small hand-crafted traces for exact severity checks.
type builder struct {
	t *trace.Trace
}

func newBuilder(ranks int) *builder { return &builder{t: trace.New("hand", ranks)} }

func (b *builder) add(rank int, e trace.Event) *builder {
	b.t.Ranks[rank].Events = append(b.t.Ranks[rank].Events, e)
	return b
}

func (b *builder) compute(rank int, name string, enter, exit trace.Time) *builder {
	return b.add(rank, trace.Event{Name: name, Kind: trace.KindCompute, Enter: enter, Exit: exit, Peer: trace.NoPeer, Root: trace.NoPeer})
}

func (b *builder) send(rank, peer int, kind trace.EventKind, enter, exit trace.Time) *builder {
	name := map[trace.EventKind]string{
		trace.KindSend: "MPI_Send", trace.KindSsend: "MPI_Ssend", trace.KindRecv: "MPI_Recv",
	}[kind]
	return b.add(rank, trace.Event{Name: name, Kind: kind,
		Enter: enter, Exit: exit, Peer: int32(peer), Tag: 7, Bytes: 8, Root: trace.NoPeer})
}

func (b *builder) coll(rank int, kind trace.EventKind, root int32, enter, exit trace.Time) *builder {
	name := map[trace.EventKind]string{
		trace.KindBarrier: "MPI_Barrier", trace.KindBcast: "MPI_Bcast",
		trace.KindGather: "MPI_Gather", trace.KindAlltoall: "MPI_Alltoall",
		trace.KindReduce: "MPI_Reduce", trace.KindAllreduce: "MPI_Allreduce",
		trace.KindAllgather: "MPI_Allgather",
	}[kind]
	return b.add(rank, trace.Event{Name: name, Kind: kind, Enter: enter, Exit: exit,
		Peer: trace.NoPeer, Bytes: 0, Root: root})
}

// analyze runs Analyze on a hand-built trace and holds it to the
// reference engine: both fail, or both produce the same diagnosis. Every
// hand-built trace in this file goes through it.
func analyze(t *testing.T, tr *trace.Trace) (*Diagnosis, error) {
	t.Helper()
	d, err := Analyze(tr)
	ref, refErr := refAnalyze(tr)
	if (err != nil) != (refErr != nil) {
		t.Fatalf("Analyze error %v, reference error %v", err, refErr)
	}
	if err == nil {
		requireEqual(t, d, ref)
	}
	return d, err
}

func sev(t *testing.T, d *Diagnosis, metric, loc string) []float64 {
	t.Helper()
	v, ok := d.Sev[Key{Metric: metric, Location: loc}]
	if !ok {
		t.Fatalf("no severity for %s@%s; have %v", metric, loc, d.Keys())
	}
	return v
}

func TestExecutionSeverity(t *testing.T) {
	b := newBuilder(1)
	b.compute(0, "do_work", 0, 100).compute(0, "do_work", 100, 250)
	d, err := analyze(t, b.t)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	v := sev(t, d, MetricExecution, "do_work")
	if v[0] != 250 {
		t.Errorf("execution = %v, want 250", v[0])
	}
}

// TestLateSenderSeverity: recv enters at 100, the matching send at 400 —
// severity 300 at the receiver.
func TestLateSenderSeverity(t *testing.T) {
	b := newBuilder(2)
	b.compute(0, "w", 0, 400).send(0, 1, trace.KindSend, 400, 410)
	b.send(1, 0, trace.KindRecv, 100, 420)
	d, err := analyze(t, b.t)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	v := sev(t, d, MetricLateSender, "MPI_Recv")
	if v[1] != 300 {
		t.Errorf("late sender = %v, want 300 at rank 1", v)
	}
	if v[0] != 0 {
		t.Errorf("late sender at sender rank = %v, want 0", v[0])
	}
}

// TestLateSenderNegative: if the send happened before the receive was
// posted, the unclamped severity goes negative (the skew signal the
// paper's figures show as white squares).
func TestLateSenderNegative(t *testing.T) {
	b := newBuilder(2)
	b.send(0, 1, trace.KindSend, 50, 60)
	b.send(1, 0, trace.KindRecv, 200, 210)
	d, err := analyze(t, b.t)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	v := sev(t, d, MetricLateSender, "MPI_Recv")
	if v[1] != -150 {
		t.Errorf("early-sender severity = %v, want -150", v[1])
	}
}

// TestLateReceiverSeverity: a synchronous send entered at 100 whose
// receive is posted at 600 blocks the sender for 500; the receiver-side
// late_sender view must be negative.
func TestLateReceiverSeverity(t *testing.T) {
	b := newBuilder(2)
	b.send(0, 1, trace.KindSsend, 100, 620)
	b.compute(1, "w", 0, 600).send(1, 0, trace.KindRecv, 600, 620)
	d, err := analyze(t, b.t)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	v := sev(t, d, MetricLateReceiver, "MPI_Ssend")
	if v[0] != 500 {
		t.Errorf("late receiver = %v, want 500 at rank 0", v)
	}
	ls := sev(t, d, MetricLateSender, "MPI_Recv")
	if ls[1] != -500 {
		t.Errorf("receive-side view = %v, want -500", ls[1])
	}
}

// TestWaitCapByClippedExit: the late-sender wait cannot extend past the
// receive's exit.
func TestWaitCapByExit(t *testing.T) {
	b := newBuilder(2)
	b.compute(0, "w", 0, 900).send(0, 1, trace.KindSend, 900, 910)
	// The recv (claims to) exit at 300, before the send even started —
	// only possible in a skewed reconstruction.
	b.send(1, 0, trace.KindRecv, 100, 300)
	d, err := analyze(t, b.t)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	v := sev(t, d, MetricLateSender, "MPI_Recv")
	if v[1] != 200 { // min(900, 300) - 100
		t.Errorf("capped wait = %v, want 200", v[1])
	}
}

func TestWaitAtBarrier(t *testing.T) {
	b := newBuilder(3)
	enters := []trace.Time{100, 400, 250}
	for r, e := range enters {
		b.coll(r, trace.KindBarrier, -1, e, 410)
	}
	d, err := analyze(t, b.t)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	v := sev(t, d, MetricWaitBarrier, "MPI_Barrier")
	want := []float64{300, 0, 150}
	for r := range want {
		if v[r] != want[r] {
			t.Errorf("barrier wait = %v, want %v", v, want)
			break
		}
	}
}

func TestWaitNxN(t *testing.T) {
	b := newBuilder(2)
	b.coll(0, trace.KindAlltoall, -1, 100, 500)
	b.coll(1, trace.KindAlltoall, -1, 450, 500)
	d, err := analyze(t, b.t)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	v := sev(t, d, MetricWaitNxN, "MPI_Alltoall")
	if v[0] != 350 || v[1] != 0 {
		t.Errorf("NxN wait = %v, want [350 0]", v)
	}
}

// TestEarlyGather: the root (rank 0) enters at 100, the last contributor
// at 700 — root severity 600. A root arriving last yields negative.
func TestEarlyGather(t *testing.T) {
	b := newBuilder(3)
	b.coll(0, trace.KindGather, 0, 100, 710)
	b.coll(1, trace.KindGather, 0, 700, 710)
	b.coll(2, trace.KindGather, 0, 300, 310)
	d, err := analyze(t, b.t)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	v := sev(t, d, MetricEarlyGather, "MPI_Gather")
	if v[0] != 600 || v[1] != 0 || v[2] != 0 {
		t.Errorf("early gather = %v, want [600 0 0]", v)
	}
}

func TestEarlyGatherRootLate(t *testing.T) {
	b := newBuilder(2)
	b.coll(0, trace.KindGather, 0, 900, 910)
	b.coll(1, trace.KindGather, 0, 100, 110)
	d, err := analyze(t, b.t)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	v := sev(t, d, MetricEarlyGather, "MPI_Gather")
	if v[0] >= 0 {
		t.Errorf("late root should give negative early-gather severity, got %v", v[0])
	}
}

// TestLateBroadcast: the root enters at 500; non-roots at 100 and 200
// wait 400 and 300.
func TestLateBroadcast(t *testing.T) {
	b := newBuilder(3)
	b.coll(0, trace.KindBcast, 0, 500, 510)
	b.coll(1, trace.KindBcast, 0, 100, 510)
	b.coll(2, trace.KindBcast, 0, 200, 510)
	d, err := analyze(t, b.t)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	v := sev(t, d, MetricLateBroadcast, "MPI_Bcast")
	if v[0] != 0 || v[1] != 400 || v[2] != 300 {
		t.Errorf("late broadcast = %v, want [0 400 300]", v)
	}
}

// TestClipExits: a trace whose event nominally extends past its
// successor's entry (reconstruction skew) must be clipped, producing a
// shortened — possibly negative — duration.
func TestClipExits(t *testing.T) {
	b := newBuilder(1)
	b.compute(0, "a", 0, 500) // claims to run until 500
	b.compute(0, "b", 300, 400)
	d, err := analyze(t, b.t)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if v := sev(t, d, MetricExecution, "a"); v[0] != 300 {
		t.Errorf("clipped execution = %v, want 300", v[0])
	}
	// An event starting before its predecessor nominally ended AND
	// "ending" before it started yields negative duration.
	b2 := newBuilder(1)
	b2.compute(0, "a", 0, 500)
	b2.compute(0, "b", 300, 350)
	b2.compute(0, "c", 320, 330) // b clipped to [300,320]
	d2, err := analyze(t, b2.t)
	if err != nil {
		t.Fatal(err)
	}
	if v := sev(t, d2, MetricExecution, "b"); v[0] != 20 {
		t.Errorf("clipped b = %v, want 20", v[0])
	}
}

func TestMarkersIgnored(t *testing.T) {
	b := newBuilder(1)
	b.add(0, trace.Event{Name: "main.1", Kind: trace.KindMarkBegin, Peer: trace.NoPeer, Root: trace.NoPeer})
	b.compute(0, "w", 0, 100)
	b.add(0, trace.Event{Name: "main.1", Kind: trace.KindMarkEnd, Enter: 100, Exit: 100, Peer: trace.NoPeer, Root: trace.NoPeer})
	d, err := analyze(t, b.t)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	for _, k := range d.Keys() {
		if k.Location == "main.1" {
			t.Errorf("marker leaked into diagnosis: %v", k)
		}
	}
}

func TestAnalyzeErrors(t *testing.T) {
	t.Run("unbalanced p2p", func(t *testing.T) {
		b := newBuilder(2)
		b.send(0, 1, trace.KindSend, 0, 10)
		if _, err := analyze(t, b.t); err == nil {
			t.Error("send without recv must fail")
		}
	})
	t.Run("recv without send", func(t *testing.T) {
		b := newBuilder(2)
		b.send(1, 0, trace.KindRecv, 0, 10)
		if _, err := analyze(t, b.t); err == nil {
			t.Error("recv without send must fail")
		}
	})
	t.Run("collective count mismatch", func(t *testing.T) {
		b := newBuilder(2)
		b.coll(0, trace.KindBarrier, -1, 0, 10)
		if _, err := analyze(t, b.t); err == nil {
			t.Error("missing collective participant must fail")
		}
	})
	t.Run("collective kind mismatch", func(t *testing.T) {
		b := newBuilder(2)
		b.coll(0, trace.KindBarrier, -1, 0, 10)
		b.coll(1, trace.KindAlltoall, -1, 0, 10)
		if _, err := analyze(t, b.t); err == nil {
			t.Error("mixed collective kinds must fail")
		}
	})
	// A rooted collective whose agreed root is no rank of the trace.
	for _, kind := range []trace.EventKind{trace.KindGather, trace.KindReduce, trace.KindBcast} {
		for _, root := range []int32{-1, 2, 99} {
			t.Run(fmt.Sprintf("%s root %d", kind, root), func(t *testing.T) {
				b := newBuilder(2)
				b.coll(0, kind, root, 0, 10)
				b.coll(1, kind, root, 5, 10)
				if _, err := analyze(t, b.t); err == nil {
					t.Errorf("%s with root %d of 2 ranks must fail", kind, root)
				}
			})
		}
	}
}

func TestDiagnosisHelpers(t *testing.T) {
	b := newBuilder(2)
	b.compute(0, "w", 0, 100)
	b.compute(1, "w", 0, 300)
	d, err := analyze(t, b.t)
	if err != nil {
		t.Fatal(err)
	}
	k := Key{Metric: MetricExecution, Location: "w"}
	if got := d.Total(k); got != 400 {
		t.Errorf("Total = %v, want 400", got)
	}
	if got := d.MaxAbs(); got != 300 {
		t.Errorf("MaxAbs = %v, want 300", got)
	}
	if got := d.Total(Key{Metric: "nope", Location: "x"}); got != 0 {
		t.Errorf("absent Total = %v, want 0", got)
	}
	if d.WallTime != 300 {
		t.Errorf("WallTime = %v, want 300", d.WallTime)
	}
}

func TestAbbrev(t *testing.T) {
	want := map[string]string{
		MetricExecution: "EX", MetricLateSender: "LS", MetricLateReceiver: "LR",
		MetricEarlyGather: "N1", MetricLateBroadcast: "1N",
		MetricWaitBarrier: "BA", MetricWaitNxN: "NN", "custom": "custom",
	}
	for m, w := range want {
		if got := Abbrev(m); got != w {
			t.Errorf("Abbrev(%s) = %s, want %s", m, got, w)
		}
	}
}
