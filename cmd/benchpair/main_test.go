package main

import (
	"math"
	"strings"
	"testing"
)

// A perfbench run's standard output: the provenance line, then the
// result line.
const cannedOutput = `{"provenance":{"workload":"catalog_study","seed":4001,"traced":false,"commit":"unknown","run_seconds":20}}
{"correct":true,"attempted":1620,"failed":0,"metrics":{"alloc_bytes_per_event":{"value":54.3,"unit":"B"},"events_per_s":{"value":6690000,"unit":"events/s"},"ok_pct":{"value":100,"unit":"%"}}}
`

func TestParseResult(t *testing.T) {
	r, err := parseResult([]byte(cannedOutput))
	if err != nil {
		t.Fatal(err)
	}
	if !r.Correct || r.Attempted != 1620 || r.Failed != 0 {
		t.Errorf("got correct=%v attempted=%d failed=%d, want true 1620 0", r.Correct, r.Attempted, r.Failed)
	}
	if got := r.Metrics["events_per_s"].Value; got != 6690000 {
		t.Errorf("events_per_s = %g, want 6690000", got)
	}
	if got := r.Metrics["alloc_bytes_per_event"].Value; got != 54.3 {
		t.Errorf("alloc_bytes_per_event = %g, want 54.3", got)
	}

	incorrect := strings.Replace(cannedOutput, `"correct":true`, `"correct":false`, 1)
	if r, err := parseResult([]byte(incorrect)); err != nil || r.Correct {
		t.Errorf("correct:false line: correct=%v err=%v, want false and no error", r.Correct, err)
	}
	for name, out := range map[string]string{
		"empty":           "",
		"provenance only": strings.SplitAfter(cannedOutput, "\n")[0],
		"error text":      "perfbench: decoding: unexpected EOF\n",
	} {
		if _, err := parseResult([]byte(out)); err == nil {
			t.Errorf("%s: no error", name)
		}
	}
}

func TestSummarize(t *testing.T) {
	s := summarize([]float64{5, 1, 4, 2, 3})
	if s != (summary{q1: 2, median: 3, q3: 4}) {
		t.Errorf("odd count: got %+v, want q1 2, median 3, q3 4", s)
	}
	s = summarize([]float64{4, 1, 3, 2})
	if s != (summary{q1: 1.75, median: 2.5, q3: 3.25}) {
		t.Errorf("even count: got %+v, want q1 1.75, median 2.5, q3 3.25", s)
	}
	if s := summarize([]float64{7}); s != (summary{7, 7, 7}) {
		t.Errorf("one value: got %+v", s)
	}
}

// series returns n values starting at from, step apart.
func series(n int, from, step float64) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = from + float64(i)*step
	}
	return xs
}

func TestJudge(t *testing.T) {
	higher := metricSpec{Name: "events_per_s", Better: "higher", Bound: 0.25}
	lower := metricSpec{Name: "alloc_bytes_per_event", Better: "lower", Bound: 0.1}
	cases := []struct {
		name                           string
		m                              metricSpec
		base, change                   []float64
		wins, losses, ties             int
		regression, unresolved, gained bool
	}{
		{
			name: "clear gain", m: higher,
			base: series(10, 100, 1), change: series(10, 120, 1),
			wins: 10, gained: true,
		},
		{
			name: "eight wins are no gain", m: higher,
			base:   series(10, 100, 1),
			change: []float64{120, 121, 122, 123, 124, 125, 126, 127, 90, 91},
			wins:   8, losses: 2,
		},
		{
			name: "a tie counts for neither side", m: higher,
			base:   series(10, 100, 1),
			change: []float64{120, 121, 122, 123, 124, 125, 126, 127, 128, 109},
			wins:   9, ties: 1, gained: true,
		},
		{
			name: "two ties miss the claim", m: higher,
			base:   series(10, 100, 1),
			change: []float64{120, 121, 122, 123, 124, 125, 126, 127, 108, 109},
			wins:   8, ties: 2,
		},
		{
			name: "medians within the parent's IQR", m: higher,
			base: series(10, 100, 2), change: series(10, 101, 2),
			wins: 10,
		},
		{
			name: "lower is better: regression", m: lower,
			base: series(5, 50, 0.1), change: series(5, 60, 0.1),
			losses: 5, regression: true,
		},
		{
			name: "lower is better: worse within the bound", m: lower,
			base: series(5, 50, 0.1), change: series(5, 53, 0.1),
			losses: 5,
		},
		{
			name: "lower is better: gain", m: lower,
			base: series(5, 84, 0.1), change: series(5, 54, 0.1),
			wins: 5, gained: true,
		},
		{
			name: "parent spread wider than the bound", m: lower,
			base: []float64{40, 50, 60, 70, 80}, change: []float64{45, 55, 58, 72, 75},
			wins: 2, losses: 3, unresolved: true,
		},
		{
			name: "every change run beats every parent run", m: lower,
			base: []float64{40, 50, 60, 70, 80}, change: []float64{30, 31, 32, 33, 34},
			wins: 5, gained: true,
		},
		{
			name: "a metric at zero that stays there", m: lower,
			base: series(5, 0, 0), change: series(5, 0, 0),
			ties: 5,
		},
		{
			name: "a metric at zero that grows", m: lower,
			base: series(5, 0, 0), change: series(5, 1, 0),
			losses: 5, regression: true,
		},
	}
	for _, c := range cases {
		v := judge(c.m, c.base, c.change)
		if v.wins != c.wins || v.losses != c.losses || v.ties != c.ties {
			t.Errorf("%s: w/l/t %d/%d/%d, want %d/%d/%d", c.name, v.wins, v.losses, v.ties, c.wins, c.losses, c.ties)
		}
		if v.regression != c.regression || v.unresolved != c.unresolved || v.gain != c.gained {
			t.Errorf("%s: regression %v unresolved %v gain %v, want %v %v %v", c.name,
				v.regression, v.unresolved, v.gain, c.regression, c.unresolved, c.gained)
		}
	}
	if v := judge(higher, series(10, 100, 0), series(10, 122.6, 0)); math.Abs(v.pct-22.6) > 1e-9 {
		t.Errorf("pct = %g, want 22.6", v.pct)
	}
}

func TestFailedShare(t *testing.T) {
	rs := []result{{Attempted: 100, Failed: 1}, {Attempted: 300, Failed: 0}}
	if got := failedShare(rs); got != 0.0025 {
		t.Errorf("failedShare = %g, want 0.0025", got)
	}
	if got := failedShare(nil); got != 0 {
		t.Errorf("failedShare(nil) = %g, want 0", got)
	}
}

func TestTrajectoryRow(t *testing.T) {
	lower := metricSpec{Name: "latency_p50_ms", Better: "lower", Bound: 0.25}
	v := judge(lower, []float64{6.2, 6.39, 6.6, 6.1, 6.5}, []float64{2.5, 2.59, 2.7, 2.6, 6.45})
	got := trajectoryRow("79c0b21", "serve_mixed", lower.Name, v)
	want := "| `79c0b21` | serve_mixed | latency_p50_ms | 6.39 | 2.6 | -59.3% | 5 | 5/5 |"
	if got != want {
		t.Errorf("row\n got %s\nwant %s", got, want)
	}
	higher := metricSpec{Name: "events_per_s", Better: "higher", Bound: 0.25}
	v = judge(higher, []float64{4.93e6, 4.93e6, 5e6}, []float64{5.94e6, 4.93e6, 4.9e6})
	got = trajectoryRow("35c60af", "catalog_study", higher.Name, v)
	want = "| `35c60af` | catalog_study | events_per_s | 4.93e+06 | 4.93e+06 | +0.0% | 3 | 1/3 |"
	if got != want {
		t.Errorf("row\n got %s\nwant %s", got, want)
	}
}
