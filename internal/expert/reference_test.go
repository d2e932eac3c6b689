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

// TestDiagnosisSurvivesPoolReuse: a Diagnosis stays unchanged while
// later Analyze and AnalyzeReduced calls, failing ones included, reuse
// the pooled buffers of the calls that built it. It aliases only its
// severity array, which is never pooled.
func TestDiagnosisSurvivesPoolReuse(t *testing.T) {
	clone := func(d *expert.Diagnosis) *expert.Diagnosis {
		c := *d
		c.Sev = make(map[expert.Key][]float64, len(d.Sev))
		for k, v := range d.Sev {
			c.Sev[k] = append([]float64(nil), v...)
		}
		return &c
	}
	type kept struct{ got, want *expert.Diagnosis }
	var diags []kept
	for _, name := range []string{"late_sender", "NtoN_32", "1to1r_32", "early_gather"} {
		w, err := eval.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		full, err := w.Generate()
		if err != nil {
			t.Fatal(err)
		}
		d, err := expert.Analyze(full)
		if err != nil {
			t.Fatal(err)
		}
		diags = append(diags, kept{d, clone(d)})
		for _, method := range core.MethodNames {
			p, err := core.DefaultMethod(method)
			if err != nil {
				t.Fatal(err)
			}
			red, err := core.Reduce(full, p)
			if err != nil {
				t.Fatal(err)
			}
			d, err := expert.AnalyzeReduced(red)
			if err != nil {
				t.Fatal(err)
			}
			diags = append(diags, kept{d, clone(d)})
			red.Ranks[0].Execs = append(red.Ranks[0].Execs, core.Exec{ID: len(red.Ranks[0].Stored)})
			if _, err := expert.AnalyzeReduced(red); err == nil {
				t.Fatalf("%s/%s: AnalyzeReduced accepted an exec of a missing segment", name, method)
			}
		}
	}
	for i, d := range diags {
		expert.RequireEqual(t, d.got, d.want)
		if d.got.MaxAbs() == 0 {
			t.Fatalf("diagnosis %d has no severities; the check would show nothing", i)
		}
	}
}
