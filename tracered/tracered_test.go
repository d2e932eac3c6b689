package tracered_test

import (
	"bytes"
	"testing"

	"repro/tracered"
)

// TestPublicPipeline exercises the documented end-to-end flow on one of
// the study workloads.
func TestPublicPipeline(t *testing.T) {
	full, err := tracered.GenerateWorkload("late_sender")
	if err != nil {
		t.Fatalf("GenerateWorkload: %v", err)
	}
	m, err := tracered.NewMethod("avgWave", 0.2)
	if err != nil {
		t.Fatalf("NewMethod: %v", err)
	}
	red, err := tracered.Reduce(full, m)
	if err != nil {
		t.Fatalf("Reduce: %v", err)
	}
	if tracered.ReducedSize(red) >= tracered.TraceSize(full) {
		t.Error("reduction did not shrink the trace")
	}
	recon, err := red.Reconstruct()
	if err != nil {
		t.Fatalf("Reconstruct: %v", err)
	}
	dist, err := tracered.ApproximationDistance(full, recon, 0.9)
	if err != nil {
		t.Fatalf("ApproximationDistance: %v", err)
	}
	if dist < 0 || dist > 10_000 {
		t.Errorf("approximation distance %d out of plausible range", dist)
	}
	res, err := tracered.Score(full, red)
	if err != nil {
		t.Fatalf("Score: %v", err)
	}
	if !res.Retained {
		t.Errorf("avgWave should retain late_sender trends: %v", res.Issues)
	}
}

func TestEvaluateShortcut(t *testing.T) {
	full, err := tracered.GenerateWorkload("late_broadcast")
	if err != nil {
		t.Fatal(err)
	}
	res, err := tracered.Evaluate(full, "manhattan", 0.4)
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	if res.Method != "manhattan" || res.Threshold != 0.4 {
		t.Errorf("result identity: %+v", res)
	}
}

func TestDiagnosisAndChart(t *testing.T) {
	full, err := tracered.GenerateWorkload("late_sender")
	if err != nil {
		t.Fatal(err)
	}
	d, err := tracered.Analyze(full)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	found := false
	for _, k := range d.Keys() {
		if k.Metric == "late_sender" && k.Location == "MPI_Recv" {
			found = true
		}
	}
	if !found {
		t.Error("late_sender diagnosis missing from full trace")
	}
	if chart := tracered.Chart(d, 0.01); len(chart) == 0 {
		t.Error("empty chart")
	}
	v := tracered.CompareDiagnoses(d, d)
	if !v.Retained {
		t.Errorf("self-comparison must be retained: %v", v)
	}
}

func TestTraceIO(t *testing.T) {
	full, err := tracered.GenerateWorkload("early_gather")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tracered.WriteTraceFormat(&buf, full, tracered.FormatV1); err != nil {
		t.Fatalf("WriteTraceFormat: %v", err)
	}
	if int64(buf.Len()) != tracered.TraceSize(full) {
		t.Error("TraceSize disagrees with WriteTraceFormat")
	}
	back, err := tracered.ReadTrace(&buf)
	if err != nil {
		t.Fatalf("ReadTrace: %v", err)
	}
	if back.NumEvents() != full.NumEvents() || back.Name != full.Name {
		t.Error("trace IO roundtrip lost data")
	}
}

func TestReducedIO(t *testing.T) {
	full, err := tracered.GenerateWorkload("early_gather")
	if err != nil {
		t.Fatal(err)
	}
	m, err := tracered.DefaultMethod("absDiff")
	if err != nil {
		t.Fatal(err)
	}
	red, err := tracered.Reduce(full, m)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tracered.WriteReducedFormat(&buf, red, tracered.FormatV1); err != nil {
		t.Fatalf("WriteReducedFormat: %v", err)
	}
	if int64(buf.Len()) != tracered.ReducedSize(red) {
		t.Error("ReducedSize disagrees with WriteReducedFormat")
	}
	back, err := tracered.ReadReduced(&buf)
	if err != nil {
		t.Fatalf("ReadReduced: %v", err)
	}
	a, err := red.Reconstruct()
	if err != nil {
		t.Fatal(err)
	}
	b, err := back.Reconstruct()
	if err != nil {
		t.Fatal(err)
	}
	if a.NumEvents() != b.NumEvents() {
		t.Error("reduced IO roundtrip changed reconstruction")
	}
}

func TestWorkloadNames(t *testing.T) {
	names := tracered.WorkloadNames()
	if len(names) != 20 {
		t.Errorf("WorkloadNames = %d, want 20", len(names))
	}
	if _, err := tracered.GenerateWorkload("not-a-workload"); err == nil {
		t.Error("unknown workload must fail")
	}
}

func TestMethodRegistry(t *testing.T) {
	if len(tracered.MethodNames) != 9 {
		t.Errorf("MethodNames = %d, want 9", len(tracered.MethodNames))
	}
	for _, name := range tracered.MethodNames {
		if _, err := tracered.DefaultMethod(name); err != nil {
			t.Errorf("DefaultMethod(%s): %v", name, err)
		}
	}
	if _, err := tracered.NewMethod("nope", 1); err == nil {
		t.Error("unknown method must fail")
	}
}
