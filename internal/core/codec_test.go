package core

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/trace"
)

func TestReducedCodecRoundtrip(t *testing.T) {
	tr := buildLoopTrace("loop", []trace.Time{10, 12, 9, 14})
	red, err := Reduce(tr, NewAbsDiff(3))
	if err != nil {
		t.Fatalf("Reduce: %v", err)
	}
	var buf bytes.Buffer
	if err := EncodeReduced(&buf, red, 1); err != nil {
		t.Fatalf("EncodeReduced: %v", err)
	}
	got, err := DecodeReduced(&buf)
	if err != nil {
		t.Fatalf("DecodeReduced: %v", err)
	}
	if got.Name != red.Name || got.Method != red.Method {
		t.Errorf("metadata lost: %q/%q vs %q/%q", got.Name, got.Method, red.Name, red.Method)
	}
	if len(got.Ranks) != len(red.Ranks) {
		t.Fatalf("rank count %d, want %d", len(got.Ranks), len(red.Ranks))
	}
	if !reflect.DeepEqual(got.Ranks[0].Execs, red.Ranks[0].Execs) {
		t.Errorf("execs mismatch: %v vs %v", got.Ranks[0].Execs, red.Ranks[0].Execs)
	}
	for i, s := range red.Ranks[0].Stored {
		g := got.Ranks[0].Stored[i]
		if g.Context != s.Context || g.End != s.End || g.Weight != s.Weight {
			t.Errorf("stored %d header mismatch: %+v vs %+v", i, g, s)
		}
		if !reflect.DeepEqual(g.Events, s.Events) {
			t.Errorf("stored %d events mismatch", i)
		}
	}
	// The decoded reduction must reconstruct identically.
	a, err := red.Reconstruct()
	if err != nil {
		t.Fatal(err)
	}
	b, err := got.Reconstruct()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("reconstruction differs after codec roundtrip")
	}
}

// TestReductionActuallyShrinks: a highly repetitive trace must encode
// much smaller reduced than full — the paper's entire premise.
func TestReductionActuallyShrinks(t *testing.T) {
	durs := make([]trace.Time, 200)
	for i := range durs {
		durs[i] = 10
	}
	tr := buildLoopTrace("loop", durs)
	red, err := Reduce(tr, NewAbsDiff(1))
	if err != nil {
		t.Fatalf("Reduce: %v", err)
	}
	s := SizeReport{FullBytes: trace.EncodedSize(tr), ReducedBytes: EncodedReducedSize(red)}
	if s.Percent() > 15 {
		t.Errorf("repetitive trace reduced to %.1f%%, expected <15%%", s.Percent())
	}
	if s.FullBytes <= s.ReducedBytes {
		t.Errorf("reduced (%d) not smaller than full (%d)", s.ReducedBytes, s.FullBytes)
	}
}

// TestNoMatchOverheadBounded: with nothing matching, the reduced form is
// at most moderately larger than the full trace (representatives plus
// exec records plus headers).
func TestNoMatchOverheadBounded(t *testing.T) {
	tr := buildLoopTrace("loop", []trace.Time{1, 10, 100, 1000, 10000})
	red, err := Reduce(tr, NewAbsDiff(0))
	if err != nil {
		t.Fatalf("Reduce: %v", err)
	}
	s := SizeReport{FullBytes: trace.EncodedSize(tr), ReducedBytes: EncodedReducedSize(red)}
	if s.ReducedBytes > s.FullBytes+int64(len(red.Ranks[0].Execs)*ExecRecordSize)+64 {
		t.Errorf("no-match overhead too large: %d vs %d", s.ReducedBytes, s.FullBytes)
	}
}

func TestDecodeReducedErrors(t *testing.T) {
	tr := buildLoopTrace("loop", []trace.Time{10, 12})
	red, _ := Reduce(tr, NewAbsDiff(100))
	var buf bytes.Buffer
	if err := EncodeReduced(&buf, red, 1); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	bad := append([]byte("YYYY"), raw[4:]...)
	if _, err := DecodeReduced(bytes.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Errorf("want magic error, got %v", err)
	}
	for _, cut := range []int{3, 9, len(raw) / 2, len(raw) - 2} {
		if _, err := DecodeReduced(bytes.NewReader(raw[:cut])); err == nil {
			t.Errorf("truncation at %d not detected", cut)
		}
	}
}
