package repro

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/eval"
)

// TestVPTreeModeGridParity holds the vptree matcher to its
// match-decision-exact guarantee over the full grid: stored segment
// counts, matching counters, and encoded reduced sizes must equal exact
// mode for every workload × method (only which representative an
// execution references may differ).
func TestVPTreeModeGridParity(t *testing.T) {
	for _, workload := range eval.AllNames() {
		workload := workload
		t.Run(workload, func(t *testing.T) {
			full := parityTrace(t, workload)
			for _, method := range core.MethodNames {
				pRef, err := core.DefaultMethod(method)
				if err != nil {
					t.Fatal(err)
				}
				pVP, err := core.DefaultMethod(method)
				if err != nil {
					t.Fatal(err)
				}
				ref, err := core.Reduce(full, pRef)
				if err != nil {
					t.Fatalf("%s: Reduce: %v", method, err)
				}
				vp, err := core.ReduceMode(full, pVP, core.MatchModeVPTree)
				if err != nil {
					t.Fatalf("%s: ReduceMode(vptree): %v", method, err)
				}
				if vp.TotalSegments != ref.TotalSegments ||
					vp.Matches != ref.Matches ||
					vp.PossibleMatches != ref.PossibleMatches ||
					vp.StoredSegments() != ref.StoredSegments() {
					t.Fatalf("%s: vptree (%d,%d,%d,%d) vs exact (%d,%d,%d,%d)", method,
						vp.TotalSegments, vp.Matches, vp.PossibleMatches, vp.StoredSegments(),
						ref.TotalSegments, ref.Matches, ref.PossibleMatches, ref.StoredSegments())
				}
				if got, want := core.EncodedReducedSize(vp), core.EncodedReducedSize(ref); got != want {
					t.Fatalf("%s: vptree encoded size %d, exact %d", method, got, want)
				}
			}
		})
	}
}

// TestAutoModeGridParity holds the deprecated MatchModeAuto to its
// documented behaviour over the full 20-workload × 9-method grid: it
// selects the exact scan, so counters and encoded reductions are
// byte-identical to the plain matcher's.
func TestAutoModeGridParity(t *testing.T) {
	for _, workload := range eval.AllNames() {
		workload := workload
		t.Run(workload, func(t *testing.T) {
			full := parityTrace(t, workload)
			for _, method := range core.MethodNames {
				pRef, err := core.DefaultMethod(method)
				if err != nil {
					t.Fatal(err)
				}
				pAuto, err := core.DefaultMethod(method)
				if err != nil {
					t.Fatal(err)
				}
				ref, err := core.Reduce(full, pRef)
				if err != nil {
					t.Fatalf("%s: Reduce: %v", method, err)
				}
				auto, err := core.ReduceMode(full, pAuto, core.MatchModeAuto)
				if err != nil {
					t.Fatalf("%s: ReduceMode(auto): %v", method, err)
				}
				if auto.TotalSegments != ref.TotalSegments ||
					auto.Matches != ref.Matches ||
					auto.PossibleMatches != ref.PossibleMatches {
					t.Fatalf("%s: auto (%d,%d,%d) vs exact (%d,%d,%d)", method,
						auto.TotalSegments, auto.Matches, auto.PossibleMatches,
						ref.TotalSegments, ref.Matches, ref.PossibleMatches)
				}
				if !bytes.Equal(encodeReduced(t, auto), encodeReduced(t, ref)) {
					t.Fatalf("%s: auto-mode encoded reduction differs from Reduce", method)
				}
			}
		})
	}
}
