// Package e2e round-trips the CLI pipeline end to end: tracegen writes a
// workload trace, tracereduce reduces it rank-by-rank through the
// streaming engine, traceanalyze diagnoses it — all as real subprocesses
// on a temp dir — and the test then decodes the reduced file and scores
// it through the library to prove the artifacts are valid.
package e2e

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/tracered"
)

// buildTools compiles the three pipeline commands into dir and returns
// their paths.
func buildTools(t *testing.T, dir string) map[string]string {
	t.Helper()
	goTool := filepath.Join(runtime.GOROOT(), "bin", "go")
	if _, err := os.Stat(goTool); err != nil {
		var lookErr error
		goTool, lookErr = exec.LookPath("go")
		if lookErr != nil {
			t.Skip("go tool not available; skipping CLI round-trip")
		}
	}
	cmd := exec.Command(goTool, "build", "-o", dir,
		"repro/cmd/tracegen", "repro/cmd/tracereduce", "repro/cmd/traceanalyze")
	cmd.Dir = "../.." // repo root, where go.mod lives
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building tools: %v\n%s", err, out)
	}
	tools := map[string]string{}
	for _, name := range []string{"tracegen", "tracereduce", "traceanalyze"} {
		tools[name] = filepath.Join(dir, name)
	}
	return tools
}

// run executes one tool and returns its combined output.
func run(t *testing.T, bin string, args ...string) string {
	t.Helper()
	out, err := exec.Command(bin, args...).CombinedOutput()
	if err != nil {
		t.Fatalf("%s %s: %v\n%s", filepath.Base(bin), strings.Join(args, " "), err, out)
	}
	return string(out)
}

// runFails executes one tool, requires a non-zero exit, and returns the
// exit code and combined output.
func runFails(t *testing.T, bin string, args ...string) (int, string) {
	t.Helper()
	out, err := exec.Command(bin, args...).CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) {
		t.Fatalf("%s %s: want a non-zero exit, got %v\n%s", filepath.Base(bin), strings.Join(args, " "), err, out)
	}
	return exit.ExitCode(), string(out)
}

func TestCLIRoundTrip(t *testing.T) {
	dir := t.TempDir()
	tools := buildTools(t, dir)
	trc := filepath.Join(dir, "late_sender.trc")
	trr := filepath.Join(dir, "late_sender.trr")

	genOut := run(t, tools["tracegen"], "-workload", "late_sender", "-o", trc)
	if !strings.Contains(genOut, "late_sender") || !strings.Contains(genOut, "ranks") {
		t.Errorf("tracegen output unexpected: %q", genOut)
	}
	if st, err := os.Stat(trc); err != nil || st.Size() == 0 {
		t.Fatalf("tracegen wrote no trace: %v", err)
	}

	redOut := run(t, tools["tracereduce"],
		"-in", trc, "-method", "avgWave", "-out", trr, "-verify")
	for _, want := range []string{"degree of matching", "wrote " + trr, "approximation distance", "performance trends"} {
		if !strings.Contains(redOut, want) {
			t.Errorf("tracereduce output missing %q:\n%s", want, redOut)
		}
	}

	anaOut := run(t, tools["traceanalyze"], "-in", trc)
	if !strings.Contains(anaOut, "late_sender") {
		t.Errorf("traceanalyze chart does not name the workload:\n%s", anaOut)
	}

	// The written artifacts must decode and score through the library.
	tf, err := os.Open(trc)
	if err != nil {
		t.Fatal(err)
	}
	full, err := tracered.ReadTrace(tf)
	tf.Close()
	if err != nil {
		t.Fatalf("decoding written trace: %v", err)
	}
	rf, err := os.Open(trr)
	if err != nil {
		t.Fatal(err)
	}
	red, err := tracered.ReadReduced(rf)
	rf.Close()
	if err != nil {
		t.Fatalf("decoding written reduction: %v", err)
	}
	if red.Name != full.Name {
		t.Errorf("reduced name %q, want %q", red.Name, full.Name)
	}
	if red.StoredSegments() == 0 {
		t.Error("reduced trace stored no segments")
	}
	res, err := tracered.Score(full, red)
	if err != nil {
		t.Fatalf("scoring decoded reduction: %v", err)
	}
	if res.PctSize <= 0 || res.PctSize >= 100 {
		t.Errorf("reduced size %.2f%% of full, want within (0, 100)", res.PctSize)
	}
}

// TestCLIRoundTripV2 runs the same pipeline on v2 containers: tracegen
// -format v2 writes a TRC2, tracereduce reads it (block-parallel, it's
// a file) and writes a TRR2, traceanalyze diagnoses both — and the v2
// artifacts must decode through the library to the same structures the
// v1 pipeline yields.
func TestCLIRoundTripV2(t *testing.T) {
	dir := t.TempDir()
	tools := buildTools(t, dir)
	trc1 := filepath.Join(dir, "halo_jitter.trc")
	trc2 := filepath.Join(dir, "halo_jitter.v2.trc")
	trr2 := filepath.Join(dir, "halo_jitter.trr")

	run(t, tools["tracegen"], "-workload", "halo_jitter", "-o", trc1)
	genOut := run(t, tools["tracegen"], "-workload", "halo_jitter", "-format", "v2", "-o", trc2)
	if !strings.Contains(genOut, "(v2)") {
		t.Errorf("tracegen -format v2 output does not name the format: %q", genOut)
	}
	st1, err1 := os.Stat(trc1)
	st2, err2 := os.Stat(trc2)
	if err1 != nil || err2 != nil {
		t.Fatalf("stat written traces: %v / %v", err1, err2)
	}
	if st2.Size() >= st1.Size() {
		t.Errorf("v2 trace (%d bytes) not smaller than v1 (%d bytes)", st2.Size(), st1.Size())
	}

	redOut := run(t, tools["tracereduce"],
		"-in", trc2, "-method", "avgWave", "-format", "v2", "-out", trr2)
	if !strings.Contains(redOut, "wrote "+trr2) {
		t.Errorf("tracereduce did not report writing %s:\n%s", trr2, redOut)
	}

	for _, in := range []string{trc2, trr2} {
		anaOut := run(t, tools["traceanalyze"], "-in", in)
		if !strings.Contains(anaOut, "halo_jitter") {
			t.Errorf("traceanalyze chart for %s does not name the workload:\n%s", in, anaOut)
		}
	}

	// The v1 and v2 traces must decode to identical structures, and the
	// v2-path reduction must match reducing the v1-decoded trace.
	readTrace := func(path string) *tracered.Trace {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		tr, err := tracered.ReadTrace(f)
		if err != nil {
			t.Fatalf("decoding %s: %v", path, err)
		}
		return tr
	}
	full1, full2 := readTrace(trc1), readTrace(trc2)
	if !reflect.DeepEqual(full1, full2) {
		t.Error("v1 and v2 containers of the same workload decode differently")
	}
	rf, err := os.Open(trr2)
	if err != nil {
		t.Fatal(err)
	}
	red, err := tracered.ReadReduced(rf)
	rf.Close()
	if err != nil {
		t.Fatalf("decoding written TRR2: %v", err)
	}
	m, err := tracered.DefaultMethod("avgWave")
	if err != nil {
		t.Fatal(err)
	}
	want, err := tracered.Reduce(full1, m)
	if err != nil {
		t.Fatal(err)
	}
	// Compare through the canonical v1 encoding: byte equality is the
	// cross-version parity the codecs guarantee.
	var wantEnc, gotEnc bytes.Buffer
	if err := tracered.WriteReducedFormat(&wantEnc, want, tracered.FormatV1); err != nil {
		t.Fatal(err)
	}
	if err := tracered.WriteReducedFormat(&gotEnc, red, tracered.FormatV1); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wantEnc.Bytes(), gotEnc.Bytes()) {
		t.Error("reduction written through the v2 pipeline differs from reducing the v1-decoded trace")
	}
}

// TestCLIVerifyInMemory: -verify without -out scores the reduction from
// memory. It prints the -out run's summary line and the same distance
// and trend lines, and writes no file.
func TestCLIVerifyInMemory(t *testing.T) {
	dir := t.TempDir()
	tools := buildTools(t, dir)
	trc := filepath.Join(dir, "late_sender.trc")
	trr := filepath.Join(dir, "late_sender.trr")
	run(t, tools["tracegen"], "-workload", "late_sender", "-o", trc)
	for _, format := range []string{"v1", "v2"} {
		withOut := strings.Split(run(t, tools["tracereduce"],
			"-in", trc, "-format", format, "-out", trr, "-verify"), "\n")
		if err := os.Remove(trr); err != nil {
			t.Fatal(err)
		}
		before, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		inMemory := strings.Split(run(t, tools["tracereduce"], "-in", trc, "-format", format, "-verify"), "\n")
		// The -out run adds one line, "wrote <file>", after the summary.
		if len(withOut) < 4 || withOut[1] != "wrote "+trr {
			t.Fatalf("%s: unexpected -out output:\n%s", format, strings.Join(withOut, "\n"))
		}
		want := append([]string{withOut[0]}, withOut[2:]...)
		if !reflect.DeepEqual(inMemory, want) {
			t.Errorf("%s: -verify without -out printed\n%s\nwant\n%s", format,
				strings.Join(inMemory, "\n"), strings.Join(want, "\n"))
		}
		if !strings.HasPrefix(inMemory[1], "approximation distance") || !strings.HasPrefix(inMemory[2], "performance trends") {
			t.Errorf("%s: missing the distance and trend lines:\n%s", format, strings.Join(inMemory, "\n"))
		}
		after, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(after) != len(before) {
			t.Errorf("%s: -verify without -out left %d files in the directory, had %d", format, len(after), len(before))
		}
	}
}

// TestCLIFailures pins tracereduce's failure behaviour: an explicit
// negative -threshold is an error, not a request for the default, a
// reduction that fails leaves no -out file behind, and an -out that is
// the input file is refused before anything is written.
func TestCLIFailures(t *testing.T) {
	dir := t.TempDir()
	tools := buildTools(t, dir)
	trc := filepath.Join(dir, "late_sender.trc")
	run(t, tools["tracegen"], "-workload", "late_sender", "-o", trc)

	t.Run("negative_threshold", func(t *testing.T) {
		code, out := runFails(t, tools["tracereduce"], "-in", trc, "-method", "relDiff", "-threshold", "-0.5")
		if code != 1 || !strings.Contains(out, "negative") {
			t.Errorf("exit %d, want 1 with the negative threshold named:\n%s", code, out)
		}
	})

	t.Run("truncated_input_with_out", func(t *testing.T) {
		full, err := os.ReadFile(trc)
		if err != nil {
			t.Fatal(err)
		}
		cut := filepath.Join(dir, "cut.trc")
		if err := os.WriteFile(cut, full[:len(full)/2], 0o644); err != nil {
			t.Fatal(err)
		}
		trr := filepath.Join(dir, "cut.trr")
		code, out := runFails(t, tools["tracereduce"], "-in", cut, "-out", trr)
		if code != 1 || !strings.Contains(out, "unexpected EOF") {
			t.Errorf("exit %d, want 1 with the truncation named:\n%s", code, out)
		}
		if _, err := os.Stat(trr); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("failed run left %s behind (stat: %v)", trr, err)
		}
	})

	for _, format := range []string{"v1", "v2"} {
		t.Run("out_is_input_"+format, func(t *testing.T) {
			in := filepath.Join(dir, "self_"+format+".trc")
			run(t, tools["tracegen"], "-workload", "late_sender", "-format", format, "-o", in)
			link := filepath.Join(dir, "self_"+format+".link")
			if err := os.Symlink(in, link); err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(in)
			if err != nil {
				t.Fatal(err)
			}
			for _, out := range []string{in, link} {
				code, msg := runFails(t, tools["tracereduce"], "-in", in, "-out", out)
				if code != 1 || !strings.Contains(msg, in) || !strings.Contains(msg, out) {
					t.Errorf("-out %s: exit %d, want 1 naming both paths:\n%s", out, code, msg)
				}
				got, err := os.ReadFile(in)
				if err != nil {
					t.Fatalf("-out %s: the input is gone: %v", out, err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("-out %s: the input changed (%d bytes, was %d)", out, len(got), len(want))
				}
			}
		})
	}
}
