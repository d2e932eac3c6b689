package repro

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/trace"
)

// TestAutoModeGridParity holds the deprecated MatchModeAuto to its
// documented behaviour over the full 20-workload × 9-method grid: the
// engine ignores it, so a pipelined reduction of the trace's TRC1
// container under it writes the counters and TRR1 bytes of Reduce.
func TestAutoModeGridParity(t *testing.T) {
	for _, workload := range eval.AllNames() {
		workload := workload
		t.Run(workload, func(t *testing.T) {
			full := parityTrace(t, workload)
			var enc bytes.Buffer
			if err := trace.Encode(&enc, full); err != nil {
				t.Fatal(err)
			}
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
				d, err := trace.NewDecoder(bytes.NewReader(enc.Bytes()))
				if err != nil {
					t.Fatal(err)
				}
				var auto bytes.Buffer
				st, err := core.ReduceStreamToWriterOpts(d, pAuto, &auto, 1,
					core.StreamOptions{Mode: core.MatchModeAuto})
				if err != nil {
					t.Fatalf("%s: ReduceStreamToWriterOpts(auto): %v", method, err)
				}
				if st.TotalSegments != ref.TotalSegments ||
					st.Matches != ref.Matches ||
					st.PossibleMatches != ref.PossibleMatches {
					t.Fatalf("%s: auto (%d,%d,%d) vs exact (%d,%d,%d)", method,
						st.TotalSegments, st.Matches, st.PossibleMatches,
						ref.TotalSegments, ref.Matches, ref.PossibleMatches)
				}
				if !bytes.Equal(auto.Bytes(), encodeReduced(t, ref)) {
					t.Fatalf("%s: auto-mode encoded reduction differs from Reduce", method)
				}
			}
		})
	}
}
