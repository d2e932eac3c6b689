// Benchmark harness: BenchmarkStudy times the paper's whole evaluation —
// the computation `cmd/evalstudy -all` prints, whose output
// TestStudyGolden pins — and the ablation times what the paper leaves
// as future work. Traces are generated once and shared
// through a package-level runner; the measured work is reduction,
// analysis and comparison.
package repro

import (
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/expert"
)

var (
	runnerOnce sync.Once
	runner     *eval.Runner
)

// sharedRunner returns a process-wide runner with every workload trace
// pre-generated, so per-benchmark timings measure evaluation, not
// workload simulation.
func sharedRunner(b *testing.B) *eval.Runner {
	b.Helper()
	runnerOnce.Do(func() {
		runner = eval.NewRunner()
		for _, name := range eval.AllNames() {
			if _, err := runner.Diagnosis(name); err != nil {
				panic("bench: generating " + name + ": " + err.Error())
			}
		}
	})
	return runner
}

// runCells evaluates a grid once and fails the benchmark on error. The
// runner's cell cache is dropped first so every call measures evaluation
// work, not memoized results.
func runCells(b *testing.B, cells []eval.Cell) []*eval.Result {
	b.Helper()
	r := sharedRunner(b)
	r.ResetCells()
	results, err := r.RunGrid(cells)
	if err != nil {
		b.Fatal(err)
	}
	return results
}

// meanMetrics reports grid-wide means as benchmark metrics.
func meanMetrics(b *testing.B, results []*eval.Result) {
	var pct, degree, dist float64
	retained := 0
	for _, r := range results {
		pct += r.PctSize
		degree += r.Degree
		dist += float64(r.ApproxDist)
		if r.Retained {
			retained++
		}
	}
	n := float64(len(results))
	b.ReportMetric(pct/n, "%size")
	b.ReportMetric(degree/n, "degree")
	b.ReportMetric(dist/n, "apxdist-us")
	b.ReportMetric(float64(retained), "retained")
}

// BenchmarkStudy times the paper's whole evaluation: every cell of
// eval.StudyCells — each workload under each method at its default
// threshold and across its threshold sweep, the grid behind Figures 5–19
// and Tables 1–20 — reduced, scored and compared once per iteration, and
// reports the grid-wide means. The figures and tables themselves are
// pinned by TestStudyGolden (testdata/study_all.txt), not measured here.
func BenchmarkStudy(b *testing.B) {
	cells := eval.StudyCells()
	var results []*eval.Result
	for b.Loop() {
		results = runCells(b, cells)
	}
	b.ReportMetric(float64(len(cells)), "cells")
	meanMetrics(b, results)
}

// BenchmarkAblationSamplingVsIterK compares the paper's future-work
// method (systematic segment sampling) with iter_k at matched data
// volume on the drifting workload where their biases differ most.
func BenchmarkAblationSamplingVsIterK(b *testing.B) {
	r := sharedRunner(b)
	full, err := r.Trace("dyn_load_balance")
	if err != nil {
		b.Fatal(err)
	}
	fullDiag, err := r.Diagnosis("dyn_load_balance")
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name      string
		method    string
		threshold float64
	}{
		{"iter_k10", "iter_k", 10},
		{"sample_n6", "sample_n", 6}, // ~64/6 ≈ 10 kept per class
	} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := eval.Evaluate(full, fullDiag, tc.method, tc.threshold)
				if err != nil {
					b.Fatal(err)
				}
				if i == b.N-1 {
					b.ReportMetric(res.PctSize, "%size")
					b.ReportMetric(float64(res.ApproxDist), "apxdist-us")
					retained := 0.0
					if res.Retained {
						retained = 1
					}
					b.ReportMetric(retained, "retained")
				}
			}
		})
	}
}

// BenchmarkPipelineStages breaks the core pipeline into its stages for
// one mid-size workload, the numbers a user tuning the library cares
// about: reduce, encode, reconstruct, analyze.
func BenchmarkPipelineStages(b *testing.B) {
	r := sharedRunner(b)
	full, err := r.Trace("NtoN_32")
	if err != nil {
		b.Fatal(err)
	}
	b.Run("reduce/avgWave", func(b *testing.B) {
		p, _ := core.NewMethod("avgWave", 0.2)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.Reduce(full, p); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("reduce/relDiff", func(b *testing.B) {
		p, _ := core.NewMethod("relDiff", 0.8)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.Reduce(full, p); err != nil {
				b.Fatal(err)
			}
		}
	})
	p, _ := core.NewMethod("avgWave", 0.2)
	red, err := core.Reduce(full, p)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			core.EncodedReducedSize(red)
		}
	})
	b.Run("reconstruct", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := red.Reconstruct(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("analyze/reduced", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := expert.AnalyzeReduced(red); err != nil {
				b.Fatal(err)
			}
		}
	})
	recon, err := red.Reconstruct()
	if err != nil {
		b.Fatal(err)
	}
	b.Run("analyze/reconstructed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := expert.Analyze(recon); err != nil {
				b.Fatal(err)
			}
		}
	})
}
