package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// benchmarkSpec is the part of the repository's BENCHMARK.json the
// self-test checks the emitted metrics against.
type benchmarkSpec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(buf, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// tinyConfig runs a workload at the smallest scale that still exercises
// every layer it drives: two study traces, short windows, one set-up.
func tinyConfig(workload string, traced bool) *config {
	seconds := 0.2
	if workload == "serve_mixed" {
		seconds = 2.5 // repeats and analyze calls start after serveMinAge
	}
	return &config{
		workload:  workload,
		seed:      7,
		seconds:   seconds,
		traced:    traced,
		workers:   2,
		setupRuns: 1,
		catalog:   []string{"late_sender", "1to1r_32"},
	}
}

// TestMetricsAndStageSum runs every workload untraced and traced and
// checks that each metric BENCHMARK.json names is emitted with its unit,
// that every output passed its check, and that the traced runs passed
// the stage-sum check.
func TestMetricsAndStageSum(t *testing.T) {
	spec := readSpec(t)
	for _, workload := range []string{"catalog_study", "matcher_worstcase", "serve_mixed"} {
		for _, traced := range []bool{false, true} {
			rep, err := runConfig(tinyConfig(workload, traced))
			if err != nil {
				t.Fatalf("%s traced=%v: %v", workload, traced, err)
			}
			if !rep.Correct || rep.Failed != 0 {
				t.Errorf("%s traced=%v: correct=%v failed=%d: %v", workload, traced, rep.Correct, rep.Failed, rep.errs)
			}
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json names %d", workload, traced, len(rep.Metrics), len(want))
			}
			for _, w := range want {
				got, ok := rep.Metrics[w.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: %s missing", workload, traced, w.Name)
				case got.Unit != w.Unit:
					t.Errorf("%s traced=%v: %s has unit %q, BENCHMARK.json says %q", workload, traced, w.Name, got.Unit, w.Unit)
				case !traced && got.Value == 0:
					t.Errorf("%s: end-to-end metric %s reads 0", workload, w.Name)
				}
			}
			if traced {
				gap := rep.Metrics["bench.stage_sum_gap_pct"].Value
				if gap < 0 || gap > stageSumTolerancePct {
					t.Errorf("%s: stage-sum gap %.2f%% outside [0, %.1f%%]", workload, gap, stageSumTolerancePct)
				}
			}
			indexed := rep.Metrics["core.match.scans_indexed"].Value
			if traced && workload == "catalog_study" && indexed != 0 {
				t.Errorf("catalog_study: %v indexed scans, want 0", indexed)
			}
			if traced && workload == "matcher_worstcase" && indexed == 0 {
				t.Errorf("matcher_worstcase: no indexed scans under auto")
			}
		}
	}
}

// TestFlippedByteFailsDigest corrupts one byte of every output before
// its digest check: every workload must count the mismatches as failures
// and report an incorrect result.
func TestFlippedByteFailsDigest(t *testing.T) {
	for _, workload := range []string{"catalog_study", "matcher_worstcase", "serve_mixed"} {
		cfg := tinyConfig(workload, false)
		cfg.mutate = func(b []byte) { b[len(b)/2] ^= 0x01 }
		rep, err := runConfig(cfg)
		if err != nil {
			t.Fatalf("%s: %v", workload, err)
		}
		if rep.Correct || rep.Failed == 0 {
			t.Errorf("%s: a flipped output byte went unnoticed (correct=%v failed=%d)", workload, rep.Correct, rep.Failed)
		}
		if len(rep.errs) == 0 || !strings.Contains(rep.errs[0], "digest") {
			t.Errorf("%s: failures do not name the digest check: %v", workload, rep.errs)
		}
	}
}

// TestResultLine checks the command's output contract: the last line is
// one JSON object with exactly the keys correct, attempted, failed, and
// metrics, and a bad flag exits non-zero without a result.
func TestResultLine(t *testing.T) {
	var out, errs bytes.Buffer
	if code := run([]string{"--workload", "matcher_worstcase", "--seconds", "0.1"}, &out, &errs); code != 0 {
		t.Fatalf("exit %d: %s", code, errs.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var last map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := last[k]; !ok {
			t.Errorf("result line lacks %q", k)
		}
	}
	if len(last) != 4 {
		t.Errorf("result line has %d keys, want 4", len(last))
	}
	out.Reset()
	if code := run([]string{"--workload", "nope"}, &out, &errs); code == 0 || out.Len() != 0 {
		t.Errorf("unknown workload: exit %d, stdout %q", code, out.String())
	}
}
