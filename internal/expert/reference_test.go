package expert_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/expert"
)

// TestAnalyzeMatchesReference holds both analyzers to the reference
// engine on the study's catalog: Analyze of every catalog trace equals
// the reference's diagnosis, and AnalyzeReduced of every workload ×
// method reduction equals the reference's diagnosis of its
// reconstruction, bit for bit. The hand-built traces of the package
// tests are checked the same way by their analyze helper.
func TestAnalyzeMatchesReference(t *testing.T) {
	for _, name := range eval.AllNames() {
		t.Run(name, func(t *testing.T) {
			w, err := eval.Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			full, err := w.Generate()
			if err != nil {
				t.Fatalf("generating: %v", err)
			}
			got, err := expert.Analyze(full)
			if err != nil {
				t.Fatalf("Analyze: %v", err)
			}
			want, err := expert.RefAnalyze(full)
			if err != nil {
				t.Fatalf("reference: %v", err)
			}
			expert.RequireEqual(t, got, want)

			for _, method := range core.MethodNames {
				p, err := core.DefaultMethod(method)
				if err != nil {
					t.Fatal(err)
				}
				red, err := core.Reduce(full, p)
				if err != nil {
					t.Fatalf("%s: Reduce: %v", method, err)
				}
				direct, err := expert.AnalyzeReduced(red)
				if err != nil {
					t.Fatalf("%s: AnalyzeReduced: %v", method, err)
				}
				recon, err := red.Reconstruct()
				if err != nil {
					t.Fatalf("%s: Reconstruct: %v", method, err)
				}
				ref, err := expert.RefAnalyze(recon)
				if err != nil {
					t.Fatalf("%s: reference: %v", method, err)
				}
				expert.RequireEqual(t, direct, ref)
			}
		})
	}
}
