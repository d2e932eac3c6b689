package core

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/segment"
	"repro/internal/trace"
)

// hostileExecIDReduced is a reduction whose only rank stores one
// representative but logs an execution of representative 7.
func hostileExecIDReduced() *Reduced {
	return &Reduced{Name: "hostile", Method: "avgWave", Ranks: []RankReduced{{
		Stored: []*segment.Segment{{Context: "main.1", End: 5, Weight: 1, Events: []trace.Event{}}},
		Execs:  []Exec{{ID: 0, Start: 0}, {ID: 7, Start: 10}},
	}}}
}

// TestDecodeReducedRejectsExecIDOutOfRange holds both container versions
// to the same execution-log check.
func TestDecodeReducedRejectsExecIDOutOfRange(t *testing.T) {
	red := hostileExecIDReduced()
	for _, version := range []int{1, 2} {
		var buf bytes.Buffer
		if err := EncodeReduced(&buf, red, version); err != nil {
			t.Fatal(err)
		}
		_, err := DecodeReduced(bytes.NewReader(buf.Bytes()))
		if err == nil || !strings.Contains(err.Error(), "segment id 7 out of range (1 stored)") {
			t.Errorf("TRR%d: DecodeReduced error = %v, want segment id 7 out of range", version, err)
		}
	}
}

// TestDecodeReducedV1TruncatedAtRankBoundary: a TRR1 cut where a rank
// section would start is a truncated file, not a clean end of stream.
func TestDecodeReducedV1TruncatedAtRankBoundary(t *testing.T) {
	red := fuzzSeedReduced()
	var buf bytes.Buffer
	if err := EncodeReduced(&buf, red, 1); err != nil {
		t.Fatal(err)
	}
	last := appendRankReducedV1(nil, reducedNameTable(red), &red.Ranks[1])
	cut := buf.Bytes()[:buf.Len()-len(last)]
	_, err := DecodeReduced(bytes.NewReader(cut))
	if !errors.Is(err, io.ErrUnexpectedEOF) || !strings.Contains(err.Error(), "rank 1 of 2") {
		t.Fatalf("DecodeReduced(cut at rank 1) = %v, want io.ErrUnexpectedEOF at rank 1 of 2", err)
	}
}

// TestBytesAfterContainerEnd holds all four containers and every read
// path to one end-of-container rule: a container ends at its last rank
// section (version 1) or its footer (version 2), and bytes after that are
// a decode error. Every path names them, except a random-access version-2
// read, which finds a bad trailer where it expects the footer.
func TestBytesAfterContainerEnd(t *testing.T) {
	drain := func(next func() error) error {
		for {
			if err := next(); err == io.EOF {
				return nil
			} else if err != nil {
				return err
			}
		}
	}
	traceReads := map[string]func(io.Reader) error{
		"Decode": func(r io.Reader) error { _, err := trace.Decode(r); return err },
		"NextRank": func(r io.Reader) error {
			d, err := trace.NewDecoder(r)
			if err != nil {
				return err
			}
			return drain(func() error { _, err := d.NextRank(); return err })
		},
		"SignatureOfWith": func(r io.Reader) error {
			_, err := trace.SignatureOfWith(r, trace.DecoderOptions{})
			return err
		},
		"ReduceStreamToWriterOpts": func(r io.Reader) error {
			d, err := trace.NewDecoder(r)
			if err != nil {
				return err
			}
			_, err = ReduceStreamToWriterOpts(d, NewAvgWave(0.2), io.Discard, 1, StreamOptions{})
			return err
		},
	}
	reducedReads := map[string]func(io.Reader) error{
		"DecodeReduced": func(r io.Reader) error { _, err := DecodeReduced(r); return err },
		"Next": func(r io.Reader) error {
			c, err := trace.Open(r, reducedFamily, trace.DecoderOptions{}, readRankReducedV1, parseRankReducedV2)
			if err != nil {
				return err
			}
			return drain(func() error { _, err := c.Next(); return err })
		},
	}
	for _, file := range []string{"golden.trc1", "golden.trc2", "golden.trr1", "golden.trr2"} {
		data, err := os.ReadFile(goldenPath(file))
		if err != nil {
			t.Fatal(err)
		}
		junk := append(slices.Clip(data), "junk"...)
		reads := traceReads
		if strings.HasPrefix(file, "golden.trr") {
			reads = reducedReads
		}
		for _, access := range []string{"stream", "random-access"} {
			in := func(b []byte) io.Reader {
				if access == "stream" {
					return streamOnly{bytes.NewReader(b)}
				}
				return bytes.NewReader(b)
			}
			want := "bytes after the container's end"
			if access == "random-access" && strings.HasSuffix(file, "2") {
				want = "bad trailing magic"
			}
			for name, read := range reads {
				if err := read(in(data)); err != nil {
					t.Fatalf("%s %s %s: %v", file, access, name, err)
				}
				if err := read(in(junk)); err == nil || !strings.Contains(err.Error(), want) {
					t.Errorf("%s + junk, %s %s: err = %v, want %q", file, access, name, err, want)
				}
			}
		}
	}
}

// FuzzDecodeReducedAnyVersion holds the two reduced container versions
// to one grammar: whatever DecodeReduced accepts, in either version,
// must re-encode in both, and the two encodings must decode to equal
// reductions. Run it with
//
//	go test -run '^$' -fuzz '^FuzzDecodeReducedAnyVersion$' -fuzztime 20s ./internal/core
func FuzzDecodeReducedAnyVersion(f *testing.F) {
	for _, red := range []*Reduced{fuzzSeedReduced(), hostileExecIDReduced()} {
		for _, version := range []int{1, 2} {
			var buf bytes.Buffer
			if err := EncodeReduced(&buf, red, version); err != nil {
				f.Fatal(err)
			}
			f.Add(buf.Bytes())
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			return // bound fuzz memory, not a format property
		}
		red, err := DecodeReduced(bytes.NewReader(data))
		if err != nil {
			return
		}
		var decoded [2]*Reduced
		for i := range decoded {
			var buf bytes.Buffer
			if err := EncodeReduced(&buf, red, i+1); err != nil {
				t.Fatalf("re-encoding as TRR%d: %v", i+1, err)
			}
			if decoded[i], err = DecodeReduced(bytes.NewReader(buf.Bytes())); err != nil {
				t.Fatalf("decoding the TRR%d re-encoding: %v", i+1, err)
			}
		}
		if !reflect.DeepEqual(decoded[0], decoded[1]) {
			t.Fatal("TRR1 and TRR2 re-encodings decode to different reductions")
		}
	})
}

// TestHostileRankCountAllocation: a header of a few bytes declaring a
// million ranks must fail without allocating for them, in every
// container version and on both access paths.
func TestHostileRankCountAllocation(t *testing.T) {
	const nRanks = 1 << 20
	header := func(magic string, strs ...string) []byte {
		b := []byte(magic)
		for _, s := range strs {
			b = append(b, byte(len(s)), 0, 0, 0)
			b = append(b, s...)
		}
		b = append(b, 0, 0, 0, 0) // empty name table
		return append(b, nRanks&0xff, nRanks>>8&0xff, nRanks>>16&0xff, 0)
	}
	decodeTrace := func(r io.Reader) error { _, err := trace.Decode(r); return err }
	decodeReduced := func(r io.Reader) error { _, err := DecodeReduced(r); return err }
	cases := []struct {
		data   []byte
		decode func(io.Reader) error
	}{
		{header("TRC1", "x"), decodeTrace},
		{header("TRC2", "x"), decodeTrace},
		{header("TRR1", "x", ""), decodeReduced},
		{header("TRR2", "x", ""), decodeReduced},
	}
	for _, tc := range cases {
		if len(tc.data) > 32 {
			t.Fatalf("%s header is %d bytes, want at most 32", tc.data[:4], len(tc.data))
		}
		for _, path := range []string{"stream", "random-access"} {
			var r io.Reader = bytes.NewReader(tc.data)
			if path == "stream" {
				r = io.MultiReader(r) // hides ReaderAt and Seeker
			}
			label := fmt.Sprintf("%s/%s", tc.data[:4], path)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := tc.decode(r)
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Errorf("%s: decode of a bodiless container succeeded", label)
			}
			if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<20 {
				t.Errorf("%s: allocated %.1f MB for %d declared ranks", label, float64(alloc)/(1<<20), nRanks)
			}
		}
	}
}
