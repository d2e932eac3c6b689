package cube

import (
	"strings"
	"testing"

	"repro/internal/expert"
)

// diag builds a diagnosis with one wait cell and one execution cell.
func diag(wall float64, waits, exec []float64) *expert.Diagnosis {
	d := &expert.Diagnosis{
		Name:     "d",
		NumRanks: len(waits),
		WallTime: wall,
		Sev:      map[expert.Key][]float64{},
	}
	if waits != nil {
		d.Sev[expert.Key{Metric: expert.MetricLateSender, Location: "MPI_Recv"}] = waits
	}
	if exec != nil {
		d.Sev[expert.Key{Metric: expert.MetricExecution, Location: "do_work"}] = exec
	}
	return d
}

func TestPatternSimilarity(t *testing.T) {
	cases := []struct {
		a, b []float64
		want float64
		tol  float64
	}{
		{[]float64{1, 2, 3}, []float64{1, 2, 3}, 1, 1e-12},
		{[]float64{1, 2, 3}, []float64{2, 4, 6}, 1, 1e-12}, // scale-invariant
		{[]float64{1, 0}, []float64{0, 1}, 0, 1e-12},
		{[]float64{1, 2}, []float64{-1, -2}, -1, 1e-12}, // inverted
		{[]float64{0, 0}, []float64{0, 0}, 1, 0},        // both zero: identical
		{[]float64{0, 0}, []float64{1, 0}, 0, 0},        // one zero: unrelated
	}
	for _, c := range cases {
		got := patternSimilarity(c.a, c.b)
		if got < c.want-c.tol || got > c.want+c.tol {
			t.Errorf("patternSimilarity(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestCompareIdenticalRetained(t *testing.T) {
	full := diag(10000, []float64{0, 5000, 0, 5000}, nil)
	v := Compare(full, full)
	if !v.Retained {
		t.Errorf("identical diagnoses must be retained: %v", v)
	}
	if v.String() != "retained" {
		t.Errorf("String = %q", v.String())
	}
}

func TestCompareMissingCell(t *testing.T) {
	full := diag(10000, []float64{0, 5000, 0, 5000}, nil)
	approx := diag(10000, nil, nil)
	v := Compare(full, approx)
	if v.Retained {
		t.Error("missing significant diagnosis must fail")
	}
	if !strings.Contains(v.String(), "missing") {
		t.Errorf("issues = %v", v.Issues)
	}
}

func TestCompareSignFlip(t *testing.T) {
	full := diag(10000, []float64{0, 5000, 0, 5000}, nil)
	approx := diag(10000, []float64{0, -5000, 0, -5000}, nil)
	v := Compare(full, approx)
	if v.Retained || !strings.Contains(v.String(), "sign") {
		t.Errorf("sign flip not caught: %v", v)
	}
}

func TestCompareTotalOff(t *testing.T) {
	full := diag(10000, []float64{0, 5000, 0, 5000}, nil)
	approx := diag(10000, []float64{0, 2000, 0, 2000}, nil)
	v := Compare(full, approx)
	if v.Retained || !strings.Contains(v.String(), "total severity") {
		t.Errorf("total deviation not caught: %v", v)
	}
}

func TestCompareDisparityInverted(t *testing.T) {
	full := diag(10000, []float64{100, 8000, 100, 8000}, nil)
	// Same total, disparity moved to the other ranks.
	approx := diag(10000, []float64{8000, 100, 8000, 100}, nil)
	v := Compare(full, approx)
	if v.Retained {
		t.Errorf("inverted disparity must fail: %v", v)
	}
}

func TestCompareRankTolerance(t *testing.T) {
	full := diag(100000, []float64{10000, 10000, 10000, 10000}, nil)
	// Total off by 12.5% (passes), pattern similar, but one rank off 50%+.
	approx := diag(100000, []float64{4000, 11000, 10000, 10000}, nil)
	v := Compare(full, approx)
	if v.Retained || !strings.Contains(v.String(), "rank") {
		t.Errorf("per-rank deviation not caught: %v", v)
	}
}

func TestCompareInsignificantIgnored(t *testing.T) {
	// A tiny cell (below significance) may be arbitrarily wrong.
	full := diag(1e6, []float64{0, 10, 0, 0}, nil)
	approx := diag(1e6, []float64{0, -10, 0, 0}, nil)
	v := Compare(full, approx)
	if !v.Retained {
		t.Errorf("insignificant cells must not fail the verdict: %v", v)
	}
}

func TestCompareSpurious(t *testing.T) {
	full := diag(10000, nil, nil)
	approx := diag(10000, []float64{0, 90000, 0, 0}, nil)
	v := Compare(full, approx)
	if v.Retained || !strings.Contains(v.String(), "spurious") {
		t.Errorf("spurious diagnosis not caught: %v", v)
	}
}

func TestCompareExecutionDisparity(t *testing.T) {
	// Planted work disparity: upper ranks do 2x work.
	full := diag(10000, nil, []float64{10000, 10000, 20000, 20000})
	flat := diag(10000, nil, []float64{15000, 15000, 15000, 15000})
	v := Compare(full, flat)
	if v.Retained || !strings.Contains(v.String(), "disparity") {
		t.Errorf("lost work disparity not caught: %v", v)
	}
	// Preserved disparity passes even when totals shift a little.
	kept := diag(10000, nil, []float64{10500, 10400, 20300, 20600})
	if v := Compare(full, kept); !v.Retained {
		t.Errorf("preserved disparity wrongly failed: %v", v)
	}
	// Uniform execution (no disparity) is never judged.
	uniform := diag(10000, nil, []float64{10000, 10000, 10000, 10000})
	shifted := diag(10000, nil, []float64{11000, 9000, 10500, 9500})
	if v := Compare(uniform, shifted); !v.Retained {
		t.Errorf("insignificant disparity judged: %v", v)
	}
}

func TestChart(t *testing.T) {
	d := diag(10000, []float64{0, 5000, -2000, 2500}, nil)
	out := Chart(d, 0)
	if !strings.Contains(out, "LS") || !strings.Contains(out, "MPI_Recv") {
		t.Errorf("chart missing metric row: %q", out)
	}
	// Negative severities render as '-'.
	row := out[strings.Index(out, "|"):]
	if !strings.Contains(row, "-") {
		t.Errorf("negative severity not rendered: %q", out)
	}
}

func TestGlyphNearZeroBlank(t *testing.T) {
	// Values within half a glyph step of zero render blank, either sign.
	d := diag(10000, []float64{10, -10, 5000, 0}, nil)
	out := Chart(d, 0)
	row := out[strings.Index(out, "|"):]
	if strings.Contains(row, "-") {
		t.Errorf("tiny negative should render blank: %q", row)
	}
}

func TestChartMinFrac(t *testing.T) {
	d := &expert.Diagnosis{Name: "d", NumRanks: 2, WallTime: 1000, Sev: map[expert.Key][]float64{
		{Metric: expert.MetricLateSender, Location: "big"}:   {1000, 1000},
		{Metric: expert.MetricLateSender, Location: "small"}: {1, 0},
	}}
	out := Chart(d, 0.05)
	if !strings.Contains(out, "big") || strings.Contains(out, "small") {
		t.Errorf("minFrac filtering wrong: %q", out)
	}
}

func TestSideBySide(t *testing.T) {
	full := diag(10000, []float64{0, 5000, 0, 5000}, nil)
	approx := diag(10000, []float64{0, 4000, 0, 4000}, nil)
	keys := SignificantKeys(full)
	if len(keys) != 1 {
		t.Fatalf("SignificantKeys = %v", keys)
	}
	out := SideBySide([]string{"full", "m1", "m2"}, []*expert.Diagnosis{full, approx, nil}, keys)
	if !strings.Contains(out, "full") || !strings.Contains(out, "m1") {
		t.Errorf("labels missing: %q", out)
	}
	if !strings.Contains(out, "(failed)") {
		t.Errorf("nil diagnosis not marked failed: %q", out)
	}
	defer func() {
		if recover() == nil {
			t.Error("mismatched labels must panic")
		}
	}()
	SideBySide([]string{"a"}, nil, keys)
}

func TestSignificantKeysOrder(t *testing.T) {
	d := &expert.Diagnosis{Name: "d", NumRanks: 1, WallTime: 1000, Sev: map[expert.Key][]float64{
		{Metric: expert.MetricLateSender, Location: "a"}:    {100},
		{Metric: expert.MetricWaitBarrier, Location: "b"}:   {900},
		{Metric: expert.MetricExecution, Location: "exec"}:  {99999},
		{Metric: expert.MetricLateBroadcast, Location: "c"}: {1}, // insignificant
	}}
	keys := SignificantKeys(d)
	if len(keys) != 2 {
		t.Fatalf("keys = %v", keys)
	}
	if keys[0].Location != "b" || keys[1].Location != "a" {
		t.Errorf("keys not ordered by |total|: %v", keys)
	}
	for _, k := range keys {
		if k.Metric == expert.MetricExecution {
			t.Error("execution cells must be excluded")
		}
	}
}
