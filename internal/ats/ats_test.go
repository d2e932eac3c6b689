package ats

import (
	"math"
	"testing"

	"repro/internal/expert"
	"repro/internal/mpisim"
)

// smallParams keeps unit-test runs fast.
func smallParams() Params {
	return Params{Ranks: 4, Iterations: 12, Work: 1000, Severity: 500, Bytes: 1024, JitterPct: 3}
}

// runBench simulates a benchmark and returns its diagnosis.
func runBench(t *testing.T, b *Benchmark) *expert.Diagnosis {
	t.Helper()
	tr, err := mpisim.Run(b.Program, b.Config)
	if err != nil {
		t.Fatalf("%s: simulate: %v", b.Name, err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("%s: invalid trace: %v", b.Name, err)
	}
	d, err := expert.Analyze(tr)
	if err != nil {
		t.Fatalf("%s: analyze: %v", b.Name, err)
	}
	return d
}

// expectPlanted asserts that the benchmark's expected metric/location is
// a dominant diagnosis of roughly iterations × severity aggregated over
// the affected ranks.
func expectPlanted(t *testing.T, b *Benchmark, d *expert.Diagnosis, affected int, p Params) {
	t.Helper()
	k := expert.Key{Metric: b.ExpectMetric, Location: b.ExpectLocation}
	total := d.Total(k)
	want := float64(p.Iterations) * float64(p.Severity) * float64(affected)
	if total < 0.5*want || total > 2.0*want {
		t.Errorf("%s: %s total = %.0f, want ~%.0f", b.Name, k, total, want)
	}
}

func TestLateSenderBenchmark(t *testing.T) {
	p := smallParams()
	b := LateSender(p)
	d := runBench(t, b)
	expectPlanted(t, b, d, p.Ranks/2, p)
	// Severity must sit on the odd (receiver) ranks.
	v := d.Sev[expert.Key{Metric: "late_sender", Location: "MPI_Recv"}]
	if v[0] != 0 || v[1] <= 0 {
		t.Errorf("late_sender severities misplaced: %v", v)
	}
}

func TestLateReceiverBenchmark(t *testing.T) {
	p := smallParams()
	b := LateReceiver(p)
	d := runBench(t, b)
	expectPlanted(t, b, d, p.Ranks/2, p)
	v := d.Sev[expert.Key{Metric: "late_receiver", Location: "MPI_Ssend"}]
	if v[0] <= 0 || v[1] != 0 {
		t.Errorf("late_receiver severities misplaced: %v", v)
	}
}

func TestEarlyGatherBenchmark(t *testing.T) {
	p := smallParams()
	b := EarlyGather(p)
	d := runBench(t, b)
	expectPlanted(t, b, d, 1, p) // severity lands on the root only
	v := d.Sev[expert.Key{Metric: "early_gather", Location: "MPI_Gather"}]
	for r := 1; r < p.Ranks; r++ {
		if v[r] != 0 {
			t.Errorf("non-root rank %d has early_gather severity %v", r, v[r])
		}
	}
}

func TestLateBroadcastBenchmark(t *testing.T) {
	p := smallParams()
	b := LateBroadcast(p)
	d := runBench(t, b)
	expectPlanted(t, b, d, p.Ranks-1, p)
	v := d.Sev[expert.Key{Metric: "late_broadcast", Location: "MPI_Bcast"}]
	if v[0] != 0 {
		t.Errorf("root has late_broadcast severity %v", v[0])
	}
}

func TestImbalanceAtBarrierBenchmark(t *testing.T) {
	p := smallParams()
	b := ImbalanceAtBarrier(p)
	d := runBench(t, b)
	v := d.Sev[expert.Key{Metric: "wait_barrier", Location: "MPI_Barrier"}]
	// Rank 0 (least work) waits most; the heaviest rank waits ~0.
	if !(v[0] > v[p.Ranks-1]) {
		t.Errorf("barrier wait not decreasing with rank: %v", v)
	}
	if v[0] < float64(p.Iterations)*float64(p.Severity)*0.5 {
		t.Errorf("rank 0 wait %v too small", v[0])
	}
}

func TestRegularSetComplete(t *testing.T) {
	p := smallParams()
	set := []*Benchmark{EarlyGather(p), ImbalanceAtBarrier(p), LateReceiver(p), LateSender(p), LateBroadcast(p)}
	names := map[string]bool{}
	for _, b := range set {
		names[b.Name] = true
	}
	for _, want := range []string{"early_gather", "imbalance_at_mpi_barrier", "late_receiver", "late_sender", "late_broadcast"} {
		if !names[want] {
			t.Errorf("missing benchmark %s", want)
		}
	}
}

func TestInterferenceSetComplete(t *testing.T) {
	p := Params{Ranks: 4, Iterations: 6, Work: 500, Bytes: 512}
	var set []*Benchmark
	for _, sim := range []int{32, 1024} {
		for _, pat := range []InterferencePattern{PatternNto1, PatternNtoN, Pattern1toN, Pattern1to1r, Pattern1to1s} {
			set = append(set, Interference(p, pat, sim))
		}
	}
	seen := map[string]bool{}
	for _, b := range set {
		seen[b.Name] = true
		if b.Config.Noise == nil {
			t.Errorf("%s: no noise model attached", b.Name)
		}
	}
	for _, want := range []string{"Nto1_32", "NtoN_32", "1toN_32", "1to1r_32", "1to1s_32",
		"Nto1_1024", "NtoN_1024", "1toN_1024", "1to1r_1024", "1to1s_1024"} {
		if !seen[want] {
			t.Errorf("missing %s", want)
		}
	}
}

func TestInterferenceBenchmarksRun(t *testing.T) {
	p := Params{Ranks: 4, Iterations: 10, Work: 1000, Bytes: 1024, JitterPct: 3}
	for _, pat := range []InterferencePattern{PatternNto1, Pattern1toN, PatternNtoN, Pattern1to1r, Pattern1to1s} {
		b := Interference(p, pat, 128)
		d := runBench(t, b)
		if d.WallTime <= float64(p.Iterations)*float64(p.Work) {
			t.Errorf("%s: wall time %v implies no noise was injected", b.Name, d.WallTime)
		}
	}
}

func TestInterferencePatternString(t *testing.T) {
	want := map[InterferencePattern]string{
		PatternNto1: "Nto1", Pattern1toN: "1toN", PatternNtoN: "NtoN",
		Pattern1to1r: "1to1r", Pattern1to1s: "1to1s",
	}
	for p, w := range want {
		if p.String() != w {
			t.Errorf("String(%d) = %q, want %q", int(p), p.String(), w)
		}
	}
}

func TestDynLoadBalance(t *testing.T) {
	p := smallParams()
	p.Iterations = 32
	b := DynLoadBalance(p)
	d := runBench(t, b)
	v := d.Sev[expert.Key{Metric: "wait_nxn", Location: "MPI_Alltoall"}]
	// Lower half waits (upper half does more work).
	lower := v[0] + v[1]
	upper := v[2] + v[3]
	if lower <= upper {
		t.Errorf("lower ranks should wait more: lower=%v upper=%v", lower, upper)
	}
	// The work disparity must show in do_work execution.
	w := d.Sev[expert.Key{Metric: "execution", Location: "do_work"}]
	if w[3] <= w[0] {
		t.Errorf("upper ranks should do more work: %v", w)
	}
}

func TestHaloJitter(t *testing.T) {
	p := smallParams()
	b := HaloJitter(p)
	d := runBench(t, b)
	// The amplified jitter makes receives wait on whichever neighbour
	// drew the slower phase. late_sender waits are signed (an early
	// sender contributes negative wait), so assert shape, not sign:
	// every rank sees nonzero wait and the magnitudes stay within the
	// jitter envelope — a fraction of Work per iteration, far below a
	// planted Severity-scale problem.
	v := d.Sev[expert.Key{Metric: b.ExpectMetric, Location: b.ExpectLocation}]
	if len(v) == 0 {
		t.Fatal("no late_sender severities recorded")
	}
	var totalAbs float64
	for rank, sev := range v {
		if sev == 0 {
			t.Errorf("rank %d has no late_sender wait (jitter should spread waits everywhere): %v", rank, v)
		}
		totalAbs += math.Abs(sev)
	}
	envelope := float64(p.Iterations) * float64(p.Work) * float64(p.Ranks)
	if totalAbs <= 0 || totalAbs >= envelope {
		t.Errorf("late_sender |total| %v outside the jitter envelope (0, %v)", totalAbs, envelope)
	}
}

func TestBurstyIO(t *testing.T) {
	p := smallParams()
	b := BurstyIO(p)
	d := runBench(t, b)
	// Each iteration exactly one rank flushes for 3×Severity while the
	// other Ranks−1 wait at the barrier.
	burst := 3 * p.Severity
	v := d.Sev[expert.Key{Metric: b.ExpectMetric, Location: b.ExpectLocation}]
	var total float64
	for _, sev := range v {
		total += sev
	}
	want := float64(p.Iterations) * float64(burst) * float64(p.Ranks-1)
	if total < 0.5*want || total > 2.0*want {
		t.Errorf("wait_barrier total = %.0f, want ~%.0f", total, want)
	}
	// The flush itself must be visible as io_flush execution time.
	w := d.Sev[expert.Key{Metric: "execution", Location: "io_flush"}]
	if len(w) == 0 {
		t.Fatal("no io_flush execution recorded")
	}
	for rank, sev := range w {
		if sev <= 0 {
			t.Errorf("rank %d never flushed: %v", rank, w)
		}
	}
}

func TestScenarioSetComplete(t *testing.T) {
	p := smallParams()
	if h, b := HaloJitter(p), BurstyIO(p); h.Name != "halo_jitter" || b.Name != "bursty_io" {
		t.Errorf("scenario benchmarks are named %q, %q", h.Name, b.Name)
	}
}

// TestDeterministicGeneration: the same parameters must generate
// identical programs (jitter is seeded by name and rank).
func TestDeterministicGeneration(t *testing.T) {
	p := smallParams()
	a, b := LateSender(p), LateSender(p)
	ta, err := mpisim.Run(a.Program, a.Config)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := mpisim.Run(b.Program, b.Config)
	if err != nil {
		t.Fatal(err)
	}
	if ta.EndTime() != tb.EndTime() || ta.NumEvents() != tb.NumEvents() {
		t.Error("generation is nondeterministic")
	}
}

// TestJitterSpread: with jitter enabled, per-iteration work durations
// vary but stay within a plausible envelope of the nominal duration.
func TestJitterSpread(t *testing.T) {
	p := smallParams()
	b := LateSender(p)
	tr, err := mpisim.Run(b.Program, b.Config)
	if err != nil {
		t.Fatal(err)
	}
	var durs []float64
	for _, e := range tr.Ranks[0].Events {
		if e.Name == "do_work" {
			durs = append(durs, float64(e.Duration()))
		}
	}
	if len(durs) != p.Iterations {
		t.Fatalf("found %d do_work events, want %d", len(durs), p.Iterations)
	}
	distinct := map[float64]bool{}
	for _, d := range durs {
		distinct[d] = true
		if math.Abs(d-float64(p.Work)) > 0.05*float64(p.Work) {
			t.Errorf("work duration %v too far from nominal %d", d, p.Work)
		}
	}
	if len(distinct) < 2 {
		t.Error("jitter produced no variation")
	}
}
