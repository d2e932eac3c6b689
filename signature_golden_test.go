// Golden content signatures. The signature keys the service's result
// cache and is reported to clients as X-Tracered-Signature, so its
// canonical byte stream (docs/SERVICE.md) is a compatibility contract:
// every catalog trace must keep the signature committed here, whichever
// container and decode path it arrives through. Regenerate deliberately
// with
//
//	go test . -run TestGoldenCatalogSignatures -update
//
// and commit the diff only when the contract is meant to change.
package repro

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/eval"
	"repro/internal/trace"
)

var updateGolden = flag.Bool("update", false, "rewrite golden fixture files")

const signatureGoldenPath = "testdata/catalog_signatures.txt"

// readGoldenSignatures parses the committed "name hex" lines.
func readGoldenSignatures(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(signatureGoldenPath)
	if err != nil {
		t.Fatalf("reading golden signatures (run with -update to create): %v", err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, sig, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			t.Fatalf("%s: malformed line %q", signatureGoldenPath, sc.Text())
		}
		want[name] = sig
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}

// TestGoldenCatalogSignatures pins the signature of every catalog trace
// (default cost model) on the three decode paths: TRC1, TRC2 through
// the block-parallel decoder, and TRC2 through the sequential decoder.
func TestGoldenCatalogSignatures(t *testing.T) {
	names := eval.AllNames()
	got := make(map[string]string, len(names))
	for _, name := range names {
		full := parityTrace(t, name)
		var v1, v2 bytes.Buffer
		if err := trace.Encode(&v1, full); err != nil {
			t.Fatalf("%s: v1 encode: %v", name, err)
		}
		if err := trace.EncodeV2(&v2, full); err != nil {
			t.Fatalf("%s: v2 encode: %v", name, err)
		}
		paths := []struct {
			path string
			r    io.Reader
		}{
			{"trc1", bytes.NewReader(v1.Bytes())},
			{"trc2-parallel", bytes.NewReader(v2.Bytes())},
			{"trc2-sequential", seqReader{bytes.NewReader(v2.Bytes())}},
		}
		for _, p := range paths {
			sig, err := trace.SignatureOfWith(p.r, trace.DecoderOptions{Workers: 2})
			if err != nil {
				t.Fatalf("%s %s: %v", name, p.path, err)
			}
			if prev, ok := got[name]; ok && prev != sig.String() {
				t.Errorf("%s: %s signature %s differs from trc1's %s", name, p.path, sig, prev)
			}
			got[name] = sig.String()
		}
	}

	if *updateGolden {
		var b strings.Builder
		for _, name := range names {
			fmt.Fprintf(&b, "%s %s\n", name, got[name])
		}
		if err := os.MkdirAll(filepath.Dir(signatureGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(signatureGoldenPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d signatures)", signatureGoldenPath, len(names))
		return
	}
	want := readGoldenSignatures(t)
	if len(want) != len(names) {
		t.Errorf("%s holds %d signatures, the catalog has %d traces", signatureGoldenPath, len(want), len(names))
	}
	for _, name := range names {
		if got[name] != want[name] {
			t.Errorf("%s: signature %s, committed %s; cached results and client-held signatures would no longer match",
				name, got[name], want[name])
		}
	}
}
