package core

import (
	"math"
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
	red, err := Reduce(full, NewAbsDiff(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []float64{0, 1.5, math.NaN()} {
		if _, err := ApproximationDistance(full, approx, q); err == nil {
			t.Errorf("ApproximationDistance: quantile %g must be rejected", q)
		}
		if _, err := ApproximationDistanceReduced(full, red, q); err == nil {
			t.Errorf("ApproximationDistanceReduced: quantile %g must be rejected", q)
		}
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
// replaced, on slices of every length up to about 1000: random values
// with and without heavy duplication, all-equal, sorted and
// reverse-sorted slices, and the shapes the histogram treats specially —
// every value in one wide bucket, only one-value buckets, values at
// powers of two and up to math.MaxInt64, and the negative error an
// overflowed |math.MinInt64| leaves. It also puts the rank on the first
// and on the last member of a wide bucket, and runs inputs that defeat
// the median-of-three pivot through selectNth so its sort fallback runs.
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
		{"one wide bucket", func(i, n int) trace.Time { return 1<<20 + rng.Int63n(1<<14) }},
		{"one-value buckets", func(i, n int) trace.Time { return rng.Int63n(128) }},
		{"powers of two", func(i, n int) trace.Time { return 1<<rng.Intn(63) + rng.Int63n(3) - 1 }},
		{"up to MaxInt64", func(i, n int) trace.Time {
			if i%2 == 0 {
				return math.MaxInt64 - rng.Int63n(3)
			}
			return rng.Int63()
		}},
		{"negative", func(i, n int) trace.Time {
			if i == n/2 {
				return math.MinInt64
			}
			return rng.Int63n(1 << 40)
		}},
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
	// Below the bucket: one-value buckets; above it: larger values.
	const below, members, above = 37, 50, 13
	var in []trace.Time
	for i := 0; i < below+members+above; i++ {
		switch {
		case i < below:
			in = append(in, rng.Int63n(128))
		case i < below+members:
			in = append(in, 1<<20+rng.Int63n(1<<14))
		default:
			in = append(in, 1<<30+rng.Int63n(1<<20))
		}
	}
	rng.Shuffle(len(in), func(i, j int) { in[i], in[j] = in[j], in[i] })
	for _, k := range []int{below, below + members - 1} {
		check("bucket edge", in, (float64(k)+1.5)/float64(len(in)))
	}
	const n = 1000
	for _, q := range quantiles[1:] {
		k := int(q*n) - 1
		in, rounds := medianOf3Killer(t, n, k)
		if budget := 2 * bits.Len(n); rounds <= budget {
			t.Fatalf("q=%g: killer input takes %d rounds, within the %d-round budget", q, rounds, budget)
		}
		check("median-of-three killer", in, q)
		want := sortQuantile(slices.Clone(in), q)
		if got := selectNth(slices.Clone(in), k); got != want {
			t.Errorf("selectNth on the killer, k=%d: got %d, want %d", k, got, want)
		}
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
