package eval

import (
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
)

func TestCatalogShape(t *testing.T) {
	ws := Catalog()
	if len(ws) != 20 {
		t.Fatalf("catalog has %d workloads, want the paper's 18 plus 2 scenario extensions", len(ws))
	}
	groups := map[string]int{}
	for _, w := range ws {
		groups[w.Group]++
	}
	want := map[string]int{"regular": 5, "interference": 10, "dynamic": 1, "scenario": 2, "application": 2}
	for g, n := range want {
		if groups[g] != n {
			t.Errorf("group %s has %d workloads, want %d", g, groups[g], n)
		}
	}
}

func TestNameLists(t *testing.T) {
	if got := len(AllNames()); got != 20 {
		t.Errorf("AllNames = %d entries, want 20", got)
	}
	if got := len(BenchmarkNames()); got != 18 {
		t.Errorf("BenchmarkNames = %d entries, want 18", got)
	}
	apps := ApplicationNames()
	if len(apps) != 2 || apps[0] != "sweep3d_8p" || apps[1] != "sweep3d_32p" {
		t.Errorf("ApplicationNames = %v", apps)
	}
}

func TestLookup(t *testing.T) {
	w, err := Lookup("late_sender")
	if err != nil {
		t.Fatalf("Lookup: %v", err)
	}
	if w.Name != "late_sender" || w.Group != "regular" {
		t.Errorf("late_sender metadata: %+v", w)
	}
	if _, err := Lookup("bogus"); err == nil {
		t.Error("unknown workload must fail")
	}
}

// TestCatalogNamesItsPrograms: every entry's declared name is the name
// of the program it builds, so the trace carries it too.
func TestCatalogNamesItsPrograms(t *testing.T) {
	for _, w := range Catalog() {
		prog, _, err := w.Build()
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if prog.Name() != w.Name {
			t.Errorf("entry %q builds program %q", w.Name, prog.Name())
		}
	}
}

// TestCatalogLookupBuildsNothing: listing the catalog and looking up
// every name builds no program; building one takes megabytes.
func TestCatalogLookupBuildsNothing(t *testing.T) {
	const bound = 64 << 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, name := range AllNames() {
		if _, err := Lookup(name); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > bound {
		t.Errorf("AllNames and 20 Lookups allocated %d bytes, want at most %d", got, bound)
	}
}

func TestGenerateSmallWorkload(t *testing.T) {
	w, err := Lookup("late_sender")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := w.Generate()
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if tr.Name != "late_sender" || tr.NumRanks() != 8 {
		t.Errorf("trace metadata: %s %d", tr.Name, tr.NumRanks())
	}
	if err := tr.Validate(); err != nil {
		t.Errorf("generated trace invalid: %v", err)
	}
}

func TestRunnerCaches(t *testing.T) {
	r := NewRunner()
	t1, err := r.Trace("late_sender")
	if err != nil {
		t.Fatal(err)
	}
	t2, err := r.Trace("late_sender")
	if err != nil {
		t.Fatal(err)
	}
	if t1 != t2 {
		t.Error("runner did not cache the trace")
	}
	d1, err := r.Diagnosis("late_sender")
	if err != nil {
		t.Fatal(err)
	}
	d2, err := r.Diagnosis("late_sender")
	if err != nil {
		t.Fatal(err)
	}
	if d1 != d2 {
		t.Error("runner did not cache the diagnosis")
	}
}

func TestEvaluatePipeline(t *testing.T) {
	r := NewRunner()
	res, err := r.Run(DefaultCell("late_sender", "avgWave"))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Workload != "late_sender" || res.Method != "avgWave" {
		t.Errorf("result identity: %+v", res)
	}
	if res.PctSize <= 0 || res.PctSize >= 100 {
		t.Errorf("PctSize = %v, expected meaningful reduction", res.PctSize)
	}
	if res.Degree <= 0.5 {
		t.Errorf("Degree = %v, expected high matching on a regular benchmark", res.Degree)
	}
	if !res.Retained {
		t.Errorf("avgWave must retain late_sender trends: %v", res.Issues)
	}
	if res.Diag == nil {
		t.Error("reconstructed diagnosis missing")
	}
	if res.FullBytes <= res.ReducedBytes {
		t.Error("reduction did not shrink the trace")
	}
}

func TestEvaluateUnknownMethod(t *testing.T) {
	r := NewRunner()
	if _, err := r.Run(Cell{Workload: "late_sender", Method: "bogus"}); err == nil {
		t.Error("unknown method must fail")
	}
}

func TestRunGridOrderAndParallelism(t *testing.T) {
	r := NewRunner()
	cells := []Cell{
		DefaultCell("late_sender", "absDiff"),
		DefaultCell("late_sender", "iter_k"),
		DefaultCell("late_receiver", "absDiff"),
	}
	results, err := r.RunGrid(cells)
	if err != nil {
		t.Fatalf("RunGrid: %v", err)
	}
	if len(results) != 3 {
		t.Fatalf("got %d results", len(results))
	}
	for i, c := range cells {
		if results[i].Workload != c.Workload || results[i].Method != c.Method {
			t.Errorf("result %d out of order: %+v", i, results[i])
		}
	}
}

func TestGridBuilders(t *testing.T) {
	cells := GridDefault([]string{"a", "b"}, []string{"m1", "m2", "m3"})
	if len(cells) != 6 {
		t.Errorf("GridDefault = %d cells", len(cells))
	}
	sweep := GridSweep([]string{"a"}, "relDiff")
	if len(sweep) != len(core.ThresholdSweep("relDiff")) {
		t.Errorf("GridSweep = %d cells", len(sweep))
	}
}

func TestFormatting(t *testing.T) {
	r := NewRunner()
	methods := []string{"absDiff", "iter_avg"}
	results, err := r.RunGrid(GridDefault([]string{"late_sender"}, methods))
	if err != nil {
		t.Fatal(err)
	}
	ix := NewIndex(results)

	out := FormatSizeAndMatching(ix, []string{"late_sender"}, methods)
	for _, want := range []string{"Figure 5a", "Figure 5b", "late_sender", "absDiff", "iter_avg"} {
		if !strings.Contains(out, want) {
			t.Errorf("Fig5 output missing %q", want)
		}
	}
	out = FormatApproxDistance(ix, []string{"late_sender"}, methods)
	if !strings.Contains(out, "Figure 6") {
		t.Error("Fig6 header missing")
	}
	out = FormatRetention(ix, []string{"late_sender"}, methods)
	if !strings.Contains(out, "Y") {
		t.Errorf("retention grid missing verdicts: %q", out)
	}
	out = FormatSummary(ix, []string{"late_sender"}, methods)
	if !strings.Contains(out, "ranked") {
		t.Error("summary header missing")
	}
	chart, err := FormatTrendChart(r, ix, "late_sender", methods)
	if err != nil {
		t.Fatalf("FormatTrendChart: %v", err)
	}
	for _, want := range []string{"full", "absDiff"} {
		if !strings.Contains(chart, want) {
			t.Errorf("trend chart missing %q", want)
		}
	}
	// Missing cells render as '-'.
	out = FormatApproxDistance(ix, []string{"late_sender"}, []string{"haarWave"})
	if !strings.Contains(out, "-") {
		t.Error("missing cells should render as '-'")
	}
}

func TestFormatThresholdSweepAndTable(t *testing.T) {
	r := NewRunner()
	results, err := r.RunGrid(GridSweep([]string{"late_sender"}, "iter_k"))
	if err != nil {
		t.Fatal(err)
	}
	ix := NewIndex(results)
	out := FormatThresholdSweep(ix, "iter_k", []string{"late_sender"})
	for _, want := range []string{"iter_k", "%size", "apxdist", "late_sender"} {
		if !strings.Contains(out, want) {
			t.Errorf("sweep output missing %q:\n%s", want, out)
		}
	}
	tbl := FormatRetentionTable(ix, "late_sender", []string{"iter_k", "iter_avg"})
	if !strings.Contains(tbl, "iter_k") || !strings.Contains(tbl, "iter_avg") {
		t.Errorf("table missing methods:\n%s", tbl)
	}
}

func TestFmtThreshold(t *testing.T) {
	if got := fmtThreshold("absDiff", 1000); got != "1e+03" {
		t.Errorf("absDiff threshold = %q", got)
	}
	if got := fmtThreshold("iter_k", 10); got != "10" {
		t.Errorf("iter_k threshold = %q", got)
	}
	if got := fmtThreshold("iter_avg", 0); got != "-" {
		t.Errorf("iter_avg threshold = %q", got)
	}
	if got := fmtThreshold("relDiff", 0.4); got != "0.4" {
		t.Errorf("relDiff threshold = %q", got)
	}
}
