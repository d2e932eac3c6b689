package core

import (
	"bytes"
	"testing"

	"repro/internal/segment"
	"repro/internal/trace"
)

// fuzzSeedReduced builds a small valid reduction exercising every TRR1
// feature: several ranks, stored representatives with weights and
// events, and execution logs referencing them.
func fuzzSeedReduced() *Reduced {
	r := &Reduced{Name: "fuzz_seed", Method: "avgWave", Ranks: make([]RankReduced, 2)}
	for rank := range r.Ranks {
		rr := &r.Ranks[rank]
		rr.Rank = rank
		rr.Stored = []*segment.Segment{
			{
				Context: "main.1", Rank: rank, End: 50, Weight: 1,
				Events: []trace.Event{
					{Name: "do_work", Kind: trace.KindCompute, Enter: 1, Exit: 20, Peer: trace.NoPeer, Root: trace.NoPeer},
					{Name: "MPI_Recv", Kind: trace.KindRecv, Enter: 21, Exit: 49, Peer: int32(1 - rank), Tag: 7, Bytes: 4096, Root: trace.NoPeer},
				},
			},
			{
				Context: "final", Rank: rank, End: 10, Weight: 3,
				Events: []trace.Event{
					{Name: "teardown", Kind: trace.KindCompute, Enter: 1, Exit: 9, Peer: trace.NoPeer, Root: trace.NoPeer},
				},
			},
		}
		rr.Execs = []Exec{{ID: 0, Start: 100}, {ID: 0, Start: 200}, {ID: 1, Start: 300}}
	}
	return r
}

// FuzzDecodeReducedRoundTrip drives the TRR1 decoder with arbitrary
// bytes and, whenever they decode, requires encode→decode→encode to be
// a fixed point. Run it as a smoke pass with
//
//	go test -fuzz=FuzzDecodeReducedRoundTrip -fuzztime=10s ./internal/core
func FuzzDecodeReducedRoundTrip(f *testing.F) {
	var seed bytes.Buffer
	if err := EncodeReduced(&seed, fuzzSeedReduced(), 1); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add(seed.Bytes()[:len(seed.Bytes())/2]) // truncated file
	f.Add([]byte("TRR1"))                     // bare magic
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			return // bound fuzz memory, not a format property
		}
		r1, err := DecodeReduced(bytes.NewReader(data))
		if err != nil {
			return // invalid input is fine; not crashing is the property
		}
		var enc1 bytes.Buffer
		if err := EncodeReduced(&enc1, r1, 1); err != nil {
			t.Fatalf("re-encoding decoded reduction: %v", err)
		}
		r2, err := DecodeReduced(bytes.NewReader(enc1.Bytes()))
		if err != nil {
			t.Fatalf("decoding re-encoded reduction: %v", err)
		}
		var enc2 bytes.Buffer
		if err := EncodeReduced(&enc2, r2, 1); err != nil {
			t.Fatalf("third encode: %v", err)
		}
		if !bytes.Equal(enc1.Bytes(), enc2.Bytes()) {
			t.Fatal("encode→decode→encode is not a fixed point")
		}
		if r1.Name != r2.Name || r1.Method != r2.Method || len(r1.Ranks) != len(r2.Ranks) ||
			r1.StoredSegments() != r2.StoredSegments() {
			t.Fatal("round trip changed reduction shape")
		}
	})
}
