package trace

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// fuzzSeedTrace builds a small, structurally valid trace covering every
// record feature the TRC1 codec serializes: multiple ranks, markers,
// compute and communication events, message parameters, and name reuse.
func fuzzSeedTrace() *Trace {
	t := New("fuzz_seed", 2)
	for rank := 0; rank < 2; rank++ {
		rt := &t.Ranks[rank]
		base := Time(10 * (rank + 1))
		rt.Events = append(rt.Events,
			Event{Name: "main.1", Kind: KindMarkBegin, Enter: base, Exit: base, Peer: NoPeer, Root: NoPeer},
			Event{Name: "do_work", Kind: KindCompute, Enter: base + 1, Exit: base + 5, Peer: NoPeer, Root: NoPeer},
			Event{Name: "MPI_Send", Kind: KindSend, Enter: base + 6, Exit: base + 7, Peer: int32(1 - rank), Tag: 7, Bytes: 4096, Root: NoPeer},
			Event{Name: "MPI_Bcast", Kind: KindBcast, Enter: base + 8, Exit: base + 9, Peer: NoPeer, Bytes: 64, Root: 0},
			Event{Name: "main.1", Kind: KindMarkEnd, Enter: base + 10, Exit: base + 10, Peer: NoPeer, Root: NoPeer},
		)
	}
	return t
}

// FuzzDecodeRoundTrip drives the TRC1 decoder with arbitrary bytes and,
// whenever they decode, requires the encode→decode→encode round trip to
// be a fixed point: the re-encoded bytes must decode to the same trace
// and encode identically again. Run it as a smoke pass with
//
//	go test -fuzz=FuzzDecodeRoundTrip -fuzztime=10s ./internal/trace
func FuzzDecodeRoundTrip(f *testing.F) {
	var seed bytes.Buffer
	if err := Encode(&seed, fuzzSeedTrace()); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add(seed.Bytes()[:len(seed.Bytes())/2]) // truncated file
	f.Add([]byte("TRC1"))                     // bare magic
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			return // bound fuzz memory, not a format property
		}
		t1, err := Decode(bytes.NewReader(data))
		if err != nil {
			return // invalid input is fine; not crashing is the property
		}
		var enc1 bytes.Buffer
		if err := Encode(&enc1, t1); err != nil {
			t.Fatalf("re-encoding decoded trace: %v", err)
		}
		t2, err := Decode(bytes.NewReader(enc1.Bytes()))
		if err != nil {
			t.Fatalf("decoding re-encoded trace: %v", err)
		}
		var enc2 bytes.Buffer
		if err := Encode(&enc2, t2); err != nil {
			t.Fatalf("third encode: %v", err)
		}
		if !bytes.Equal(enc1.Bytes(), enc2.Bytes()) {
			t.Fatal("encode→decode→encode is not a fixed point")
		}
		if t1.Name != t2.Name || t1.NumRanks() != t2.NumRanks() || t1.NumEvents() != t2.NumEvents() {
			t.Fatalf("round trip changed trace shape: %s/%d/%d vs %s/%d/%d",
				t1.Name, t1.NumRanks(), t1.NumEvents(), t2.Name, t2.NumRanks(), t2.NumEvents())
		}
	})
}

// FuzzReadPaths holds every read path of the trace containers to one
// verdict on the same bytes: NextRank on a random-access input and on a
// plain stream, the reader RankAt returns over every index, All (the
// body of Decode) on both inputs, and SignatureOfWith on both. They must
// all accept or all reject, and when they accept they must return equal
// ranks and equal signatures. Their error texts may differ: only a plain
// stream can name the block it found truncated. The seeds include the
// golden containers with bytes appended after their end, which mutation
// alone does not find. Run it with
//
//	go test -run '^$' -fuzz '^FuzzReadPaths$' -fuzztime 20s ./internal/trace
func FuzzReadPaths(f *testing.F) {
	for _, name := range []string{"golden.trc1", "golden.trc2"} {
		data, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		f.Add(append(slices.Clip(data), "junk"...))
	}
	opts := DecoderOptions{Limits: DecodeLimits{MaxStringLen: 1 << 10, MaxNames: 1 << 10, MaxRanks: 1 << 10}}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			return // bound fuzz memory, not a format property
		}
		type read struct {
			path  string
			ranks []*RankTrace
			sig   *Signature
			err   error
		}
		var reads []read
		for _, in := range []struct {
			name string
			r    func() io.Reader
		}{
			{"random-access", func() io.Reader { return bytes.NewReader(data) }},
			{"stream", func() io.Reader { return streamOnly{bytes.NewReader(data)} }},
		} {
			ranks, err := nextRanks(in.r(), opts)
			reads = append(reads, read{path: in.name + " NextRank", ranks: ranks, err: err})
			if d, err := NewDecoderWith(in.r(), opts); err == nil {
				if at := RankAt(d); at != nil {
					ranks, err := atRanks(at, d.NumRanks())
					reads = append(reads, read{path: in.name + " RankAt", ranks: ranks, err: err})
				}
			}
			d, err := NewDecoderWith(in.r(), opts)
			if err == nil {
				ranks, err = d.c.All()
			}
			reads = append(reads, read{path: in.name + " All", ranks: ranks, err: err})
			sig, err := SignatureOfWith(in.r(), opts)
			reads = append(reads, read{path: in.name + " SignatureOfWith", sig: &sig, err: err})
		}
		var first *read // the first path to return ranks
		var sig *Signature
		for i := range reads {
			r := &reads[i]
			if (r.err == nil) != (reads[0].err == nil) {
				t.Fatalf("read paths disagree: %s err=%v, %s err=%v", reads[0].path, reads[0].err, r.path, r.err)
			}
			switch {
			case r.err != nil:
			case r.sig != nil:
				if sig != nil && *r.sig != *sig {
					t.Fatalf("%s returned signature %s, another path %s", r.path, r.sig, sig)
				}
				sig = r.sig
			case first == nil:
				first = r
			case !equalRanks(r.ranks, first.ranks):
				t.Fatalf("%s and %s returned different ranks", first.path, r.path)
			}
		}
	})
}

// nextRanks reads every rank of the container r holds through NextRank.
func nextRanks(r io.Reader, opts DecoderOptions) ([]*RankTrace, error) {
	d, err := NewDecoderWith(r, opts)
	if err != nil {
		return nil, err
	}
	var ranks []*RankTrace
	for {
		rt, err := d.NextRank()
		if err == io.EOF {
			return ranks, nil
		}
		if err != nil {
			return nil, err
		}
		ranks = append(ranks, rt)
	}
}

// atRanks reads ranks 0..n-1 through a reader RankAt returned.
func atRanks(at func(int) (*RankTrace, error), n int) ([]*RankTrace, error) {
	ranks := make([]*RankTrace, n)
	for i := range ranks {
		var err error
		if ranks[i], err = at(i); err != nil {
			return nil, err
		}
	}
	return ranks, nil
}

// equalRanks reports whether a and b hold the same ranks, an empty event
// list equal to a nil one.
func equalRanks(a, b []*RankTrace) bool {
	return slices.EqualFunc(a, b, func(x, y *RankTrace) bool {
		return x.Rank == y.Rank && slices.Equal(x.Events, y.Events)
	})
}
