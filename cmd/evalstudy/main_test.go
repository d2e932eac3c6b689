package main

import (
	"bytes"
	"flag"
	"os"
	"strings"
	"testing"

	"repro/internal/eval"
)

var update = flag.Bool("update", false, "rewrite "+studyGoldenPath)

// studyGoldenPath holds the output of evalstudy -all.
const studyGoldenPath = "../../testdata/study_all.txt"

// TestStudyGolden renders evalstudy -all through run and requires the
// committed bytes: every figure, table and the method ranking of the
// paper's study, over all 980 cells of eval.StudyCells. A change that
// moves one figure cell, one trend verdict or the ranking fails here.
// Regenerate deliberately with
//
//	go test ./cmd/evalstudy -run TestStudyGolden -update
//
// and commit the diff only when the study's results are meant to change.
func TestStudyGolden(t *testing.T) {
	var got bytes.Buffer
	if err := run(eval.NewRunner(), &got, 0, 0, false, true); err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.WriteFile(studyGoldenPath, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d lines)", studyGoldenPath, strings.Count(got.String(), "\n"))
		return
	}
	want, err := os.ReadFile(studyGoldenPath)
	if err != nil {
		t.Fatalf("reading the study golden (run with -update to create): %v", err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < max(len(gl), len(wl)); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("study output differs from %s at line %d:\ngot  %q\nwant %q", studyGoldenPath, i+1, g, w)
		}
	}
}
