// Golden exact-output digests. A reduction's encoded bytes are the
// determinism contract (DESIGN.md): the same on every engine, worker
// count, container version, MatchMode value and architecture. The
// parity tests compare engines with each other, so a platform where
// every engine drifts the same way would pass them; these digests pin
// the bytes themselves. testdata/exact_digests.txt holds the SHA-256 of
// every output at default thresholds — 20 workloads × 9 methods ×
// {TRR1, TRR2} — reduced by the sequential reference and encoded with
// one worker. Regenerate deliberately with
//
//	go test . -run TestGoldenExactDigests -update
//
// and commit the diff only when the output bytes are meant to change.
package repro

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/eval"
	"repro/tracered"
)

const exactDigestsPath = "testdata/exact_digests.txt"

var digestFormats = []tracered.Format{tracered.FormatV1, tracered.FormatV2}

// digestKey names one output: workload/method/format.
func digestKey(workload, method string, f tracered.Format) string {
	return fmt.Sprintf("%s/%s/%v", workload, method, f)
}

func hexSHA256(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// readExactDigests parses the committed "key hex" lines.
func readExactDigests(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(exactDigestsPath)
	if err != nil {
		t.Fatalf("reading golden digests (run with -update to create): %v", err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		key, sum, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			t.Fatalf("%s: malformed line %q", exactDigestsPath, sc.Text())
		}
		want[key] = sum
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}

// TestGoldenExactDigests reduces every workload with every method
// through the sequential reference, encodes each result in both
// container versions with one worker, and requires the committed digest.
func TestGoldenExactDigests(t *testing.T) {
	var keys []string
	got := map[string]string{}
	for _, workload := range eval.AllNames() {
		full := parityTrace(t, workload)
		for _, method := range tracered.MethodNames {
			m, err := tracered.DefaultMethod(method)
			if err != nil {
				t.Fatal(err)
			}
			red, err := tracered.ReduceSequential(full, m)
			if err != nil {
				t.Fatalf("%s/%s: %v", workload, method, err)
			}
			for _, f := range digestFormats {
				var b bytes.Buffer
				if err := tracered.WriteReducedFormat(&b, red, f); err != nil {
					t.Fatalf("%s/%s/%v: %v", workload, method, f, err)
				}
				key := digestKey(workload, method, f)
				keys = append(keys, key)
				got[key] = hexSHA256(b.Bytes())
			}
		}
	}

	if *updateGolden {
		var b strings.Builder
		for _, key := range keys {
			fmt.Fprintf(&b, "%s %s\n", key, got[key])
		}
		if err := os.MkdirAll(filepath.Dir(exactDigestsPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(exactDigestsPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d digests)", exactDigestsPath, len(keys))
		return
	}
	want := readExactDigests(t)
	if len(want) != len(keys) {
		t.Errorf("%s holds %d digests, the grid has %d outputs", exactDigestsPath, len(want), len(keys))
	}
	for _, key := range keys {
		if got[key] != want[key] {
			t.Errorf("%s: digest %.12s, committed %.12s", key, got[key], want[key])
		}
	}
}

// TestMatchModeExactParity runs every workload and method through the
// pipelined decode → reduce → encode path with StreamOptions.Mode set to
// MatchModeAuto, and requires the committed digests: a mode value
// cannot change an output byte.
func TestMatchModeExactParity(t *testing.T) {
	want := readExactDigests(t)
	for _, workload := range eval.AllNames() {
		t.Run(workload, func(t *testing.T) {
			var trc bytes.Buffer
			if err := tracered.WriteTraceFormat(&trc, parityTrace(t, workload), tracered.FormatV2); err != nil {
				t.Fatal(err)
			}
			for _, method := range tracered.MethodNames {
				for _, f := range digestFormats {
					m, err := tracered.DefaultMethod(method)
					if err != nil {
						t.Fatal(err)
					}
					dec, err := tracered.NewTraceDecoderWith(bytes.NewReader(trc.Bytes()), tracered.DecoderOptions{Workers: 2})
					if err != nil {
						t.Fatal(err)
					}
					var out bytes.Buffer
					_, err = tracered.ReduceStreamToWriterOpts(dec, m, &out, f,
						tracered.StreamOptions{Mode: tracered.MatchModeAuto, Workers: 2})
					dec.Close()
					if err != nil {
						t.Fatalf("%s/%v: %v", method, f, err)
					}
					key := digestKey(workload, method, f)
					if got := hexSHA256(out.Bytes()); got != want[key] {
						t.Errorf("%s: auto-mode digest %.12s, committed exact %.12s", key, got, want[key])
					}
				}
			}
		})
	}
}
