// Parity tests. The parallel streaming reduction engine must produce
// results byte-identical to the retained sequential reference path, and
// the direct-from-reduced evaluation engine results exactly equal to the
// retained reconstruct-based reference, for every workload × method at
// the paper's default thresholds. The workload set is eval.AllNames() —
// all 20 workloads, including the scenario extensions halo_jitter and
// bursty_io. The encoded reduced form covers the
// stored segments and execution logs; counters, criteria, and diagnoses
// are compared directly.
package repro

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/cube"
	"repro/internal/eval"
	"repro/internal/expert"
	"repro/internal/trace"
)

var (
	parityOnce   sync.Once
	parityRunner *eval.Runner
)

// parityTrace returns the named workload's full trace from a process-wide
// cache shared with the benchmarks' runner layout.
func parityTrace(t *testing.T, name string) *trace.Trace {
	t.Helper()
	parityOnce.Do(func() { parityRunner = eval.NewRunner() })
	full, err := parityRunner.Trace(name)
	if err != nil {
		t.Fatalf("generating %s: %v", name, err)
	}
	return full
}

// encodeReduced renders a reduction to its canonical byte form.
func encodeReduced(t *testing.T, red *core.Reduced) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := core.EncodeReduced(&buf, red, 1); err != nil {
		t.Fatalf("encoding reduction: %v", err)
	}
	return buf.Bytes()
}

// TestParallelSequentialParity reduces every workload with every method
// at default thresholds through both engines and requires identical
// stored segments, execs (via the encoded form), and counters.
func TestParallelSequentialParity(t *testing.T) {
	for _, workload := range eval.AllNames() {
		workload := workload
		t.Run(workload, func(t *testing.T) {
			full := parityTrace(t, workload)
			for _, method := range core.MethodNames {
				// Fresh policy instances per engine: iter_avg mutates stored
				// representatives, so sharing one policy value is fine, but
				// fresh ones rule out any cross-run coupling.
				pPar, err := core.DefaultMethod(method)
				if err != nil {
					t.Fatal(err)
				}
				pSeq, err := core.DefaultMethod(method)
				if err != nil {
					t.Fatal(err)
				}
				par, err := core.Reduce(full, pPar)
				if err != nil {
					t.Fatalf("%s: Reduce: %v", method, err)
				}
				seq, err := core.ReduceSequential(full, pSeq)
				if err != nil {
					t.Fatalf("%s: ReduceSequential: %v", method, err)
				}
				if par.TotalSegments != seq.TotalSegments ||
					par.Matches != seq.Matches ||
					par.PossibleMatches != seq.PossibleMatches {
					t.Errorf("%s: counters differ: parallel (%d,%d,%d) vs sequential (%d,%d,%d)",
						method, par.TotalSegments, par.Matches, par.PossibleMatches,
						seq.TotalSegments, seq.Matches, seq.PossibleMatches)
				}
				if !bytes.Equal(encodeReduced(t, par), encodeReduced(t, seq)) {
					t.Errorf("%s: encoded reductions differ", method)
				}
			}
		})
	}
}

// diagEqual reports whether two diagnoses are exactly equal — same
// metadata, same cell set, same per-rank severities bit for bit. All
// severities are sums of integer microsecond differences, exact in
// float64, so the direct and reconstruct-based analyzers must agree
// exactly, not just approximately.
func diagEqual(a, b *expert.Diagnosis) bool {
	if a.Name != b.Name || a.NumRanks != b.NumRanks || a.WallTime != b.WallTime || len(a.Sev) != len(b.Sev) {
		return false
	}
	for k, av := range a.Sev {
		bv, ok := b.Sev[k]
		if !ok || len(av) != len(bv) {
			return false
		}
		for i := range av {
			if av[i] != bv[i] {
				return false
			}
		}
	}
	return true
}

// TestScoreReducedParity holds the direct-from-reduced evaluation engine
// (expert.AnalyzeReduced + core.ApproximationDistanceReduced, via
// eval.EvaluateReduced) to exactly the Result the retained
// reconstruct-based reference produces, for every workload × method at
// default thresholds.
func TestScoreReducedParity(t *testing.T) {
	for _, workload := range eval.AllNames() {
		workload := workload
		t.Run(workload, func(t *testing.T) {
			full := parityTrace(t, workload)
			fullDiag, err := expert.Analyze(full)
			if err != nil {
				t.Fatalf("analyzing full trace: %v", err)
			}
			for _, method := range core.MethodNames {
				p, err := core.DefaultMethod(method)
				if err != nil {
					t.Fatal(err)
				}
				red, err := core.Reduce(full, p)
				if err != nil {
					t.Fatalf("%s: Reduce: %v", method, err)
				}
				direct, err := eval.EvaluateReduced(full, fullDiag, red)
				if err != nil {
					t.Fatalf("%s: EvaluateReduced: %v", method, err)
				}
				ref, err := evaluateReducedReconstruct(full, fullDiag, red, trace.EncodedSize(full))
				if err != nil {
					t.Fatalf("%s: evaluateReducedReconstruct: %v", method, err)
				}
				if direct.PctSize != ref.PctSize || direct.Degree != ref.Degree ||
					direct.FullBytes != ref.FullBytes || direct.ReducedBytes != ref.ReducedBytes ||
					direct.StoredSegments != ref.StoredSegments || direct.TotalSegments != ref.TotalSegments {
					t.Errorf("%s: size/matching criteria differ: direct %+v vs reference %+v", method, direct, ref)
				}
				if direct.ApproxDist != ref.ApproxDist {
					t.Errorf("%s: approximation distance differs: direct %d vs reference %d",
						method, direct.ApproxDist, ref.ApproxDist)
				}
				if direct.Retained != ref.Retained || !equalStrings(direct.Issues, ref.Issues) {
					t.Errorf("%s: retention verdict differs: direct (%v, %v) vs reference (%v, %v)",
						method, direct.Retained, direct.Issues, ref.Retained, ref.Issues)
				}
				if !diagEqual(direct.Diag, ref.Diag) {
					t.Errorf("%s: diagnoses differ between AnalyzeReduced and Analyze(Reconstruct())", method)
				}
			}
		})
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestStreamingDecodeReduceParity round-trips each workload through the
// binary trace format and the rank-at-a-time streaming pipeline
// (decode → split → reduce), requiring byte-identical output to the
// sequential batch path — the guarantee cmd/tracereduce relies on.
func TestStreamingDecodeReduceParity(t *testing.T) {
	const method = "avgWave"
	for _, workload := range eval.AllNames() {
		workload := workload
		t.Run(workload, func(t *testing.T) {
			full := parityTrace(t, workload)
			var enc bytes.Buffer
			if err := trace.Encode(&enc, full); err != nil {
				t.Fatalf("encoding trace: %v", err)
			}
			streamed, _ := pipelineReduce(t, enc.Bytes(), method, 1, 0)
			pSeq, _ := core.DefaultMethod(method)
			seq, err := core.ReduceSequential(full, pSeq)
			if err != nil {
				t.Fatalf("ReduceSequential: %v", err)
			}
			if !bytes.Equal(streamed, encodeReduced(t, seq)) {
				t.Errorf("streamed and sequential reductions differ")
			}
		})
	}
}

// evaluateReducedReconstruct is the reconstruct-based reference scorer,
// mirroring core.ReduceSequential: it materializes red.Reconstruct() and
// re-walks every event, one criterion after another. TestScoreReducedParity
// holds eval.EvaluateReduced to exactly the same Result.
func evaluateReducedReconstruct(full *trace.Trace, fullDiag *expert.Diagnosis, red *core.Reduced, fullBytes int64) (*eval.Result, error) {
	method := red.Method
	recon, err := red.Reconstruct()
	if err != nil {
		return nil, fmt.Errorf("eval: reconstructing %s/%s: %w", full.Name, method, err)
	}
	dist, err := core.ApproximationDistance(full, recon, 0.9)
	if err != nil {
		return nil, fmt.Errorf("eval: approximation distance %s/%s: %w", full.Name, method, err)
	}
	diag, err := expert.Analyze(recon)
	if err != nil {
		return nil, fmt.Errorf("eval: analyzing reconstructed %s/%s: %w", full.Name, method, err)
	}
	verdict := cube.Compare(fullDiag, diag)
	sizes := core.SizeReport{FullBytes: fullBytes, ReducedBytes: core.EncodedReducedSize(red)}
	return &eval.Result{
		Workload:       full.Name,
		Method:         method,
		PctSize:        sizes.Percent(),
		Degree:         red.DegreeOfMatching(),
		ApproxDist:     dist,
		Retained:       verdict.Retained,
		Issues:         verdict.Issues,
		FullBytes:      sizes.FullBytes,
		ReducedBytes:   sizes.ReducedBytes,
		StoredSegments: red.StoredSegments(),
		TotalSegments:  red.TotalSegments,
		Diag:           diag,
	}, nil
}
