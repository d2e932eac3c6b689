// Scoring-engine benchmarks: the direct-from-reduced evaluation path vs
// the retained reconstruct-based reference on the largest multi-rank
// workloads. Run with
//
//	go test -bench 'Score|Analyze' -benchtime 5x
//
// BenchmarkScoreCatalog times the public scorer over the study's 180
// cells; BenchmarkScoreReduced times the four-criteria scorer on the
// largest workloads; both read the full trace's size from its
// diagnosis. BenchmarkScoreReconstructRef times the reference that
// materializes Reconstruct() and re-walks every event.
// BenchmarkAnalyzeReduced / BenchmarkAnalyzeReconstructRef isolate the
// diagnosis kernel, where the representative-scaling speedup is largest;
// BenchmarkAnalyze times the same engine on the full traces.
// BenchmarkApproxDistCatalog times the approximation distance alone over
// every cell of the study. The parity tests guarantee all paths produce
// identical results.
package repro

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/expert"
	"repro/internal/trace"
	"repro/tracered"
)

// scoreBenchSetup reduces one benchmark workload with the avgWave method
// at its default threshold and returns everything both scorers need —
// including the full-trace size the diagnosis records — outside the
// timed region.
func scoreBenchSetup(b *testing.B, workload string) (*trace.Trace, *expert.Diagnosis, *core.Reduced, int64) {
	b.Helper()
	full := reduceBenchTrace(b, workload)
	fullDiag, err := reduceBenchRunner.Diagnosis(workload)
	if err != nil {
		b.Fatalf("diagnosing %s: %v", workload, err)
	}
	p, err := core.DefaultMethod("avgWave")
	if err != nil {
		b.Fatal(err)
	}
	red, err := core.Reduce(full, p)
	if err != nil {
		b.Fatalf("reducing %s: %v", workload, err)
	}
	return full, fullDiag, red, fullDiag.FullBytes
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
// execution records, no reconstruction. Like tracered.ScoreReduced, it
// reads the full trace's size from the diagnosis.
func BenchmarkScoreReduced(b *testing.B) {
	benchScore(b, func(full *trace.Trace, fullDiag *expert.Diagnosis, red *core.Reduced, _ int64) (*eval.Result, error) {
		return eval.EvaluateReduced(full, fullDiag, red)
	})
}

// BenchmarkScoreCatalog scores the study's 180 cells — the 20 catalog
// traces, each reduced by the nine methods at their default thresholds —
// once per iteration through the public tracered.ScoreReduced, the call
// perfbench's catalog_study times. As there,
// the full traces are decoded from TRC2. It reports the cost per scored
// full-trace event.
func BenchmarkScoreCatalog(b *testing.B) {
	type cell struct {
		full *tracered.Trace
		diag *tracered.Diagnosis
		red  *tracered.Reduced
	}
	var cells []cell
	events := 0
	for _, name := range eval.AllNames() {
		var enc bytes.Buffer
		if err := tracered.WriteTraceFormat(&enc, reduceBenchTrace(b, name), tracered.FormatV2); err != nil {
			b.Fatal(err)
		}
		full, err := tracered.ReadTrace(&enc)
		if err != nil {
			b.Fatalf("decoding %s: %v", name, err)
		}
		diag, err := tracered.Analyze(full)
		if err != nil {
			b.Fatalf("diagnosing %s: %v", name, err)
		}
		for _, method := range tracered.MethodNames {
			m, err := tracered.DefaultMethod(method)
			if err != nil {
				b.Fatal(err)
			}
			red, err := tracered.Reduce(full, m)
			if err != nil {
				b.Fatalf("reducing %s with %s: %v", name, method, err)
			}
			cells = append(cells, cell{full, diag, red})
			events += full.NumEvents()
		}
	}
	b.ReportAllocs()
	for b.Loop() {
		for _, c := range cells {
			if _, err := tracered.ScoreReduced(c.full, c.diag, c.red); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*events), "ns/event")
}

// BenchmarkScoreReconstructRef exercises the retained reconstruct-based
// reference path the parity tests compare against.
func BenchmarkScoreReconstructRef(b *testing.B) { benchScore(b, evaluateReducedReconstruct) }

// BenchmarkApproxDistCatalog scores the approximation distance of the
// study's 180 cells — the 20 catalog traces, each reduced by the nine
// methods at their default thresholds — once per iteration, on one
// goroutine as the study's scorer runs, and reports the cost per
// compared stamp.
func BenchmarkApproxDistCatalog(b *testing.B) {
	type cell struct {
		full *trace.Trace
		red  *core.Reduced
	}
	var cells []cell
	stamps := 0
	for _, name := range eval.AllNames() {
		full := reduceBenchTrace(b, name)
		for r := range full.Ranks {
			for _, e := range full.Ranks[r].Events {
				if !e.Kind.IsMarker() {
					stamps += 2 * len(core.MethodNames)
				}
			}
		}
		for _, method := range core.MethodNames {
			p, err := core.DefaultMethod(method)
			if err != nil {
				b.Fatal(err)
			}
			red, err := core.Reduce(full, p)
			if err != nil {
				b.Fatalf("reducing %s with %s: %v", name, method, err)
			}
			cells = append(cells, cell{full, red})
		}
	}
	b.ReportAllocs()
	for b.Loop() {
		for _, c := range cells {
			if _, err := core.ApproximationDistanceReduced(c.full, c.red, 0.9); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*stamps), "ns/stamp")
}

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
