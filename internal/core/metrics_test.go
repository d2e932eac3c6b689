package core

import (
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/trace"
)

// pairTraces builds two single-rank traces whose non-marker timestamps
// differ by the given per-event deltas.
func pairTraces(deltas []trace.Time) (*trace.Trace, *trace.Trace) {
	mk := func(shift []trace.Time) *trace.Trace {
		t := trace.New("t", 1)
		now := trace.Time(100)
		add := func(e trace.Event) { t.Ranks[0].Events = append(t.Ranks[0].Events, e) }
		add(trace.Event{Name: "s", Kind: trace.KindMarkBegin, Enter: 0, Exit: 0, Peer: trace.NoPeer, Root: trace.NoPeer})
		for i := range deltas {
			d := trace.Time(0)
			if shift != nil {
				d = shift[i]
			}
			add(trace.Event{Name: "w", Kind: trace.KindCompute,
				Enter: now + d, Exit: now + 10 + d, Peer: trace.NoPeer, Root: trace.NoPeer})
			now += 20
		}
		add(trace.Event{Name: "s", Kind: trace.KindMarkEnd, Enter: now, Exit: now, Peer: trace.NoPeer, Root: trace.NoPeer})
		return t
	}
	return mk(nil), mk(deltas)
}

func TestApproximationDistanceExact(t *testing.T) {
	full, approx := pairTraces([]trace.Time{0, 0, 0, 0})
	d, err := ApproximationDistance(full, approx, 0.9)
	if err != nil {
		t.Fatalf("ApproximationDistance: %v", err)
	}
	if d != 0 {
		t.Errorf("distance = %d, want 0", d)
	}
}

// TestApproximationDistanceQuantile: with 10 events (20 stamps), one
// outlier of 1000 lands in the top 10%, so the 90th-percentile distance
// must stay at the small error.
func TestApproximationDistanceQuantile(t *testing.T) {
	deltas := make([]trace.Time, 10)
	for i := range deltas {
		deltas[i] = 5
	}
	deltas[9] = 1000 // one event (2 stamps = top 10%) far off
	full, approx := pairTraces(deltas)
	d, err := ApproximationDistance(full, approx, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if d != 5 {
		t.Errorf("90th-pct distance = %d, want 5 (outlier excluded)", d)
	}
	dAll, err := ApproximationDistance(full, approx, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if dAll != 1000 {
		t.Errorf("100th-pct distance = %d, want 1000", dAll)
	}
}

func TestApproximationDistanceNegativeDeltas(t *testing.T) {
	full, approx := pairTraces([]trace.Time{-7, -7, -7, -7})
	d, err := ApproximationDistance(full, approx, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if d != 7 {
		t.Errorf("distance = %d, want 7 (absolute)", d)
	}
}

func TestApproximationDistanceErrors(t *testing.T) {
	full, approx := pairTraces([]trace.Time{0})
	if _, err := ApproximationDistance(full, approx, 0); err == nil {
		t.Error("quantile 0 must be rejected")
	}
	if _, err := ApproximationDistance(full, approx, 1.5); err == nil {
		t.Error("quantile > 1 must be rejected")
	}
	other := trace.New("other", 2)
	if _, err := ApproximationDistance(full, other, 0.9); err == nil {
		t.Error("rank count mismatch must be rejected")
	}
	// Same ranks, different event counts.
	short := trace.New("short", 1)
	if _, err := ApproximationDistance(full, short, 0.9); err == nil {
		t.Error("timestamp count mismatch must be rejected")
	}
}

func TestApproximationDistanceEmpty(t *testing.T) {
	a, b := trace.New("a", 1), trace.New("b", 1)
	d, err := ApproximationDistance(a, b, 0.9)
	if err != nil || d != 0 {
		t.Errorf("empty traces: d=%d err=%v", d, err)
	}
}

// sortQuantile is the reference for quantileAbsDiff: sort everything,
// then index.
func sortQuantile(diffs []trace.Time, quantile float64) trace.Time {
	if len(diffs) == 0 {
		return 0
	}
	slices.Sort(diffs)
	idx := min(max(int(quantile*float64(len(diffs)))-1, 0), len(diffs)-1)
	return diffs[idx]
}

// medianOf3Killer builds an input of length n on which every selection
// round for index k removes only two elements from the window: before
// each round it gives the window's first and middle positions the two
// smallest values not yet handed out, so the median-of-three pivot is
// the window's second smallest element. Positions not yet given a value
// hold 1<<40 plus their original index, above every value handed out,
// so the rounds run exactly as they will on the finished input. It
// returns the input and the number of rounds selection alone would take.
func medianOf3Killer(t *testing.T, n, k int) ([]trace.Time, int) {
	const unset = 1 << 40
	a := make([]trace.Time, n)
	for i := range a {
		a[i] = unset + trace.Time(i)
	}
	in := slices.Clone(a)
	var next trace.Time
	rounds := 0
	for lo, hi, found := 0, n, false; hi-lo >= 3 && !found; rounds++ {
		for _, pos := range []int{lo, lo + (hi-lo)/2} {
			if a[pos] < unset {
				t.Fatalf("position %d already holds %d", pos, a[pos])
			}
			in[a[pos]-unset], a[pos] = next, next
			next++
		}
		lo, hi, found = partition3(a, lo, hi, k)
	}
	return in, rounds
}

// TestQuantileAbsDiffMatchesSort holds the selection to the full sort it
// replaced, on random values with and without heavy duplication,
// all-equal, sorted and reverse-sorted slices of every length up to
// about 1000, and on inputs that defeat the median-of-three pivot so the
// sort fallback runs.
func TestQuantileAbsDiffMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	shapes := []struct {
		name string
		gen  func(i, n int) trace.Time
	}{
		{"random", func(i, n int) trace.Time { return rng.Int63n(1 << 40) }},
		{"duplicates", func(i, n int) trace.Time { return rng.Int63n(5) }},
		{"all equal", func(i, n int) trace.Time { return 7 }},
		{"sorted", func(i, n int) trace.Time { return trace.Time(i) }},
		{"reverse sorted", func(i, n int) trace.Time { return trace.Time(n - i) }},
	}
	quantiles := []float64{1e-9, 0.5, 0.9, 1.0}
	check := func(name string, in []trace.Time, q float64) {
		t.Helper()
		want := sortQuantile(slices.Clone(in), q)
		if got := quantileAbsDiff(slices.Clone(in), q); got != want {
			t.Errorf("%s n=%d q=%g: got %d, want %d", name, len(in), q, got, want)
		}
	}
	for _, sh := range shapes {
		for n := 1; n <= 1000; n += 1 + n/8 {
			in := make([]trace.Time, n)
			for i := range in {
				in[i] = sh.gen(i, n)
			}
			for _, q := range quantiles {
				check(sh.name, in, q)
			}
		}
	}
	const n = 1000
	for _, q := range quantiles[1:] {
		k := int(q*n) - 1
		in, rounds := medianOf3Killer(t, n, k)
		if budget := 2 * bits.Len(n); rounds <= budget {
			t.Fatalf("q=%g: killer input takes %d rounds, within the %d-round budget", q, rounds, budget)
		}
		check("median-of-three killer", in, q)
	}
}

func TestSizeReportPercent(t *testing.T) {
	s := SizeReport{FullBytes: 200, ReducedBytes: 30}
	if got := s.Percent(); got != 15 {
		t.Errorf("Percent = %v, want 15", got)
	}
	if got := (SizeReport{}).Percent(); got != 0 {
		t.Errorf("empty Percent = %v, want 0", got)
	}
}
