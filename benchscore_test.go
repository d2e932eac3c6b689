// Scoring-engine benchmarks: the direct-from-reduced evaluation path vs
// the retained reconstruct-based reference on the largest multi-rank
// workloads. Run with
//
//	go test -bench 'Score|Analyze' -benchtime 5x
//
// BenchmarkScoreReduced times the full four-criteria scorer
// (eval.EvaluateReduced); BenchmarkScoreReconstructRef times the
// reference that materializes Reconstruct() and re-walks every event.
// BenchmarkAnalyzeReduced / BenchmarkAnalyzeReconstructRef isolate the
// diagnosis kernel, where the representative-scaling speedup is largest;
// BenchmarkAnalyze times the same engine on the full traces.
// The parity tests guarantee all paths produce identical results.
package repro

import (
	"testing"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/expert"
	"repro/internal/trace"
)

// scoreBenchSetup reduces one benchmark workload with the avgWave method
// at its default threshold and returns everything both scorers need —
// including the cached full-trace size, as the study's Runner supplies it
// — outside the timed region.
func scoreBenchSetup(b *testing.B, workload string) (*trace.Trace, *expert.Diagnosis, *core.Reduced, int64) {
	b.Helper()
	full := reduceBenchTrace(b, workload)
	fullDiag, err := reduceBenchRunner.Diagnosis(workload)
	if err != nil {
		b.Fatalf("diagnosing %s: %v", workload, err)
	}
	fullBytes, err := reduceBenchRunner.FullBytes(workload)
	if err != nil {
		b.Fatalf("sizing %s: %v", workload, err)
	}
	p, err := core.DefaultMethod("avgWave")
	if err != nil {
		b.Fatal(err)
	}
	red, err := core.Reduce(full, p)
	if err != nil {
		b.Fatalf("reducing %s: %v", workload, err)
	}
	return full, fullDiag, red, fullBytes
}

// benchScore times one scorer over the benchmark workloads.
func benchScore(b *testing.B, score func(*trace.Trace, *expert.Diagnosis, *core.Reduced, int64) (*eval.Result, error)) {
	for _, workload := range reduceBenchWorkloads {
		b.Run(workload, func(b *testing.B) {
			full, fullDiag, red, fullBytes := scoreBenchSetup(b, workload)
			var dist trace.Time
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := score(full, fullDiag, red, fullBytes)
				if err != nil {
					b.Fatal(err)
				}
				dist = res.ApproxDist
			}
			b.ReportMetric(float64(dist), "apxdist")
		})
	}
}

// BenchmarkScoreReduced exercises the production scorer: approximation
// distance and diagnosis computed directly from representatives and
// execution records, no reconstruction.
func BenchmarkScoreReduced(b *testing.B) { benchScore(b, eval.EvaluateReducedSized) }

// BenchmarkScoreReconstructRef exercises the retained reconstruct-based
// reference path the parity tests compare against.
func BenchmarkScoreReconstructRef(b *testing.B) { benchScore(b, eval.EvaluateReducedReconstructSized) }

// benchAnalyze times one diagnosis kernel over the benchmark workloads.
func benchAnalyze(b *testing.B, analyze func(*core.Reduced) (*expert.Diagnosis, error)) {
	for _, workload := range reduceBenchWorkloads {
		b.Run(workload, func(b *testing.B) {
			_, _, red, _ := scoreBenchSetup(b, workload)
			var cells int
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d, err := analyze(red)
				if err != nil {
					b.Fatal(err)
				}
				cells = len(d.Sev)
			}
			b.ReportMetric(float64(cells), "cells")
		})
	}
}

// BenchmarkAnalyzeReduced isolates the direct diagnosis kernel.
func BenchmarkAnalyzeReduced(b *testing.B) { benchAnalyze(b, expert.AnalyzeReduced) }

// BenchmarkAnalyze isolates the full-trace diagnosis, which the study
// runs once per workload.
func BenchmarkAnalyze(b *testing.B) {
	for _, workload := range reduceBenchWorkloads {
		b.Run(workload, func(b *testing.B) {
			full := reduceBenchTrace(b, workload)
			var cells int
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d, err := expert.Analyze(full)
				if err != nil {
					b.Fatal(err)
				}
				cells = len(d.Sev)
			}
			b.ReportMetric(float64(cells), "cells")
		})
	}
}

// BenchmarkAnalyzeReconstructRef isolates the reconstruct-and-re-walk
// diagnosis the direct kernel replaces.
func BenchmarkAnalyzeReconstructRef(b *testing.B) {
	benchAnalyze(b, func(red *core.Reduced) (*expert.Diagnosis, error) {
		recon, err := red.Reconstruct()
		if err != nil {
			return nil, err
		}
		return expert.Analyze(recon)
	})
}
