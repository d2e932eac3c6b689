// Golden trace containers. The TRC1 and TRC2 bytes of every catalog
// trace are deterministic, so their sizes and digests are pinned here
// rather than measured: testdata/catalog_containers.txt holds, per
// workload, the rank and event counts and, for each container version,
// the byte size and SHA-256 of WriteTraceFormat's output. TraceSize
// must predict the TRC1 size without encoding. Regenerate deliberately
// with
//
//	go test . -run TestGoldenCatalogContainers -update
//
// and commit the diff only when the container bytes are meant to change.
package repro

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/eval"
	"repro/tracered"
)

const containerGoldenPath = "testdata/catalog_containers.txt"

const containerGoldenHeader = "# workload ranks events trc1_bytes trc1_sha256 trc2_bytes trc2_sha256"

// containerLine renders one workload's golden line.
func containerLine(t *testing.T, name string) string {
	t.Helper()
	full := parityTrace(t, name)
	line := fmt.Sprintf("%s %d %d", name, len(full.Ranks), full.NumEvents())
	for _, f := range digestFormats {
		var b bytes.Buffer
		if err := tracered.WriteTraceFormat(&b, full, f); err != nil {
			t.Fatalf("%s %v: %v", name, f, err)
		}
		if size := tracered.TraceSize(full); f == tracered.FormatV1 && size != int64(b.Len()) {
			t.Errorf("%s %v: TraceSize %d, encoded %d bytes", name, f, size, b.Len())
		}
		line += fmt.Sprintf(" %d %s", b.Len(), hexSHA256(b.Bytes()))
	}
	return line
}

// TestGoldenCatalogContainers encodes every catalog trace (default cost
// model) in both container versions and requires the committed lines.
func TestGoldenCatalogContainers(t *testing.T) {
	lines := []string{containerGoldenHeader}
	for _, name := range eval.AllNames() {
		lines = append(lines, containerLine(t, name))
	}

	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(containerGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(containerGoldenPath, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d workloads)", containerGoldenPath, len(lines)-1)
		return
	}
	b, err := os.ReadFile(containerGoldenPath)
	if err != nil {
		t.Fatalf("reading golden containers (run with -update to create): %v", err)
	}
	want := strings.Split(strings.TrimSuffix(string(b), "\n"), "\n")
	if len(want) != len(lines) {
		t.Errorf("%s holds %d lines, want a header and one per catalog trace (%d)", containerGoldenPath, len(want), len(lines))
	}
	for i := range min(len(lines), len(want)) {
		if lines[i] != want[i] {
			t.Errorf("container bytes changed:\n got  %s\n want %s", lines[i], want[i])
		}
	}
}
