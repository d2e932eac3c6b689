package trace

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// The golden fixtures pin the on-disk bytes of every container version:
// a codec change that alters what existing files decode to — or what a
// canonical structure encodes to — fails here before it can silently
// break archived traces. Regenerate deliberately with
//
//	go test ./internal/trace/ ./internal/core/ -run Golden -update
//
// and commit the diff only when a format change is intended (which for
// released versions it never is: v1 and v2 files must stay readable
// forever; new layouts get a new magic).
var updateGolden = flag.Bool("update", false, "rewrite golden fixture files")

// goldenTrace returns the canonical fixture trace. It must never change:
// the committed .trc1/.trc2 fixtures encode exactly this structure.
func goldenTrace() *Trace {
	t := New("golden", 3)
	for rank := 0; rank < 2; rank++ {
		rt := &t.Ranks[rank]
		base := Time(100 * (rank + 1))
		peer := int32(1 - rank)
		rt.Events = append(rt.Events,
			Event{Name: "main.1", Kind: KindMarkBegin, Enter: base, Exit: base, Peer: NoPeer, Root: NoPeer},
			Event{Name: "do_work", Kind: KindCompute, Enter: base + 1, Exit: base + 40, Peer: NoPeer, Root: NoPeer},
			Event{Name: "MPI_Send", Kind: KindSend, Enter: base + 41, Exit: base + 45, Peer: peer, Tag: 9, Bytes: 1024, Root: NoPeer},
			Event{Name: "MPI_Recv", Kind: KindRecv, Enter: base + 46, Exit: base + 60, Peer: peer, Tag: 9, Bytes: 1024, Root: NoPeer},
			Event{Name: "MPI_Bcast", Kind: KindBcast, Enter: base + 61, Exit: base + 70, Peer: NoPeer, Bytes: 64, Root: 0},
			Event{Name: "main.1", Kind: KindMarkEnd, Enter: base + 80, Exit: base + 80, Peer: NoPeer, Root: NoPeer},
			Event{Name: "main.2", Kind: KindMarkBegin, Enter: base + 90, Exit: base + 90, Peer: NoPeer, Root: NoPeer},
			Event{Name: "MPI_Barrier", Kind: KindBarrier, Enter: base + 91, Exit: base + 99, Peer: NoPeer, Root: NoPeer},
			Event{Name: "main.2", Kind: KindMarkEnd, Enter: base + 100, Exit: base + 100, Peer: NoPeer, Root: NoPeer},
		)
	}
	// Rank 2 stays empty: both codecs must preserve event-free ranks.
	return t
}

// checkGolden compares fresh encoder output and the committed fixture,
// or rewrites the fixture under -update. The core package's golden
// tests pin the reduced containers to the same testdata directory with
// an equivalent helper.
func checkGolden(t *testing.T, path string, encoded []byte, update bool) []byte {
	t.Helper()
	if update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, encoded, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, len(encoded))
		return encoded
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden fixture (run with -update to create): %v", err)
	}
	if !bytes.Equal(want, encoded) {
		t.Errorf("%s: encoder output no longer matches the committed fixture (%d vs %d bytes); "+
			"old files written by released versions would now differ — if the format change is intended, "+
			"it needs a new magic, not an edit to this fixture", path, len(encoded), len(want))
	}
	return want
}

func TestGoldenTRC1(t *testing.T) {
	var enc bytes.Buffer
	if err := Encode(&enc, goldenTrace()); err != nil {
		t.Fatal(err)
	}
	data := checkGolden(t, filepath.Join("testdata", "golden.trc1"), enc.Bytes(), *updateGolden)
	got, err := Decode(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("decoding golden.trc1: %v", err)
	}
	if !reflect.DeepEqual(goldenTrace(), got) {
		t.Error("golden.trc1 no longer decodes to the canonical trace")
	}
}

func TestGoldenTRC2(t *testing.T) {
	var enc bytes.Buffer
	if err := EncodeV2(&enc, goldenTrace()); err != nil {
		t.Fatal(err)
	}
	data := checkGolden(t, filepath.Join("testdata", "golden.trc2"), enc.Bytes(), *updateGolden)
	for name, dec := range map[string]func() (*Trace, error){
		"parallel":   func() (*Trace, error) { return Decode(bytes.NewReader(data)) },
		"sequential": func() (*Trace, error) { return Decode(streamOnly{bytes.NewReader(data)}) },
	} {
		got, err := dec()
		if err != nil {
			t.Fatalf("%s decode of golden.trc2: %v", name, err)
		}
		if !reflect.DeepEqual(goldenTrace(), got) {
			t.Errorf("golden.trc2 no longer decodes to the canonical trace (%s path)", name)
		}
	}
}
