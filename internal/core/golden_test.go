package core

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/segment"
	"repro/internal/trace"
)

// The reduced-container golden fixtures live next to the trace ones
// under internal/trace/testdata/ so all four container versions are
// pinned in one place. See internal/trace/golden_test.go for the
// regeneration policy; the short version is: released formats never
// change, new layouts get a new magic.
var updateGolden = flag.Bool("update", false, "rewrite golden fixture files")

// goldenReduced returns the canonical fixture reduction. It must never
// change: the committed .trr1/.trr2 fixtures encode exactly this
// structure. Slice shapes mirror the decoders' (always-allocated) so
// decode results compare with reflect.DeepEqual.
func goldenReduced() *Reduced {
	return &Reduced{
		Name:   "golden",
		Method: "avgWave",
		Ranks: []RankReduced{
			{
				Rank: 0,
				Stored: []*segment.Segment{
					{
						Context: "main.1", Rank: 0, End: 80, Weight: 2,
						Events: []trace.Event{
							{Name: "do_work", Kind: trace.KindCompute, Enter: 1, Exit: 40, Peer: trace.NoPeer, Root: trace.NoPeer},
							{Name: "MPI_Send", Kind: trace.KindSend, Enter: 41, Exit: 45, Peer: 1, Tag: 9, Bytes: 1024, Root: trace.NoPeer},
							{Name: "MPI_Recv", Kind: trace.KindRecv, Enter: 46, Exit: 60, Peer: 1, Tag: 9, Bytes: 1024, Root: trace.NoPeer},
						},
					},
					{
						Context: "main.2", Rank: 0, End: 10, Weight: 1,
						Events: []trace.Event{
							{Name: "MPI_Barrier", Kind: trace.KindBarrier, Enter: 1, Exit: 9, Peer: trace.NoPeer, Root: trace.NoPeer},
						},
					},
				},
				Execs: []Exec{{ID: 0, Start: 100}, {ID: 0, Start: 200}, {ID: 1, Start: 290}},
			},
			{
				Rank: 1,
				Stored: []*segment.Segment{
					{
						Context: "main.1", Rank: 1, End: 80, Weight: 3,
						Events: []trace.Event{
							{Name: "do_work", Kind: trace.KindCompute, Enter: 1, Exit: 38, Peer: trace.NoPeer, Root: trace.NoPeer},
							{Name: "MPI_Bcast", Kind: trace.KindBcast, Enter: 39, Exit: 70, Peer: trace.NoPeer, Bytes: 64, Root: 0},
						},
					},
				},
				Execs: []Exec{{ID: 0, Start: 110}, {ID: 0, Start: 210}, {ID: 0, Start: 310}},
			},
			// Rank 2 stays empty: both codecs must preserve record-free ranks.
			{Rank: 2, Stored: []*segment.Segment{}, Execs: []Exec{}},
		},
	}
}

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

func goldenPath(name string) string {
	return filepath.Join("..", "trace", "testdata", name)
}

func TestGoldenTRR1(t *testing.T) {
	var enc bytes.Buffer
	if err := EncodeReduced(&enc, goldenReduced(), 1); err != nil {
		t.Fatal(err)
	}
	data := checkGolden(t, goldenPath("golden.trr1"), enc.Bytes(), *updateGolden)
	got, err := DecodeReduced(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("decoding golden.trr1: %v", err)
	}
	if !reflect.DeepEqual(goldenReduced(), got) {
		t.Error("golden.trr1 no longer decodes to the canonical reduction")
	}
}

func TestGoldenTRR2(t *testing.T) {
	var enc bytes.Buffer
	if err := EncodeReduced(&enc, goldenReduced(), 2); err != nil {
		t.Fatal(err)
	}
	data := checkGolden(t, goldenPath("golden.trr2"), enc.Bytes(), *updateGolden)
	for name, dec := range map[string]func() (*Reduced, error){
		"parallel":   func() (*Reduced, error) { return DecodeReduced(bytes.NewReader(data)) },
		"sequential": func() (*Reduced, error) { return DecodeReduced(streamOnly{bytes.NewReader(data)}) },
	} {
		got, err := dec()
		if err != nil {
			t.Fatalf("%s decode of golden.trr2: %v", name, err)
		}
		if !reflect.DeepEqual(goldenReduced(), got) {
			t.Errorf("golden.trr2 no longer decodes to the canonical reduction (%s path)", name)
		}
	}
}
