package core

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// hostileReducedV2Seeds derives adversarial variants of a valid TRR2
// container for the fuzz corpus: overlapping, out-of-range, and
// zero-length block indexes, plus checksum and truncation damage.
func hostileReducedV2Seeds(valid []byte) [][]byte {
	le := binary.LittleEndian
	indexOff := le.Uint64(valid[len(valid)-v2TrailerSize:])
	entry := func(b []byte, i int) []byte { return b[indexOff+4+uint64(i)*v2BlockEntrySize:] }
	clone := func() []byte { return append([]byte{}, valid...) }

	overlap := clone()
	le.PutUint64(entry(overlap, 1), le.Uint64(entry(overlap, 1))-3)

	outOfRange := clone()
	le.PutUint64(entry(outOfRange, 0), uint64(len(valid))+100)

	zeroLen := clone()
	le.PutUint32(entry(zeroLen, 0)[8:], 0) // zero-length block, records kept

	badCRC := clone()
	le.PutUint32(entry(badCRC, 0)[20:], 0xdeadbeef)

	truncated := clone()[: int(indexOff)+6 : int(indexOff)+6]

	return [][]byte{overlap, outOfRange, zeroLen, badCRC, truncated}
}

// FuzzDecodeReducedV2RoundTrip drives the TRR2 decoder (both the
// block-parallel and the sequential stream path) with arbitrary bytes
// and, whenever they decode, requires encode→decode→encode to be a
// fixed point and the two paths to agree. Run as a smoke pass with
//
//	go test -fuzz=FuzzDecodeReducedV2RoundTrip -fuzztime=10s ./internal/core
func FuzzDecodeReducedV2RoundTrip(f *testing.F) {
	var seed bytes.Buffer
	if err := EncodeReduced(&seed, fuzzSeedReduced(), 2); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add(seed.Bytes()[:len(seed.Bytes())/2]) // truncated file
	f.Add([]byte(reducedMagicV2))             // bare magic
	f.Add([]byte{})
	var empty bytes.Buffer
	if err := EncodeReduced(&empty, &Reduced{Name: "empty", Method: "none"}, 2); err != nil {
		f.Fatal(err)
	}
	f.Add(empty.Bytes())
	for _, hostile := range hostileReducedV2Seeds(seed.Bytes()) {
		f.Add(hostile)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			return // bound fuzz memory, not a format property
		}
		r1, err := DecodeReduced(bytes.NewReader(data)) // random-access path
		r1Seq, errSeq := DecodeReduced(streamOnly{bytes.NewReader(data)})
		if (err == nil) != (errSeq == nil) {
			t.Fatalf("decode paths disagree: parallel err=%v, sequential err=%v", err, errSeq)
		}
		if err != nil {
			return // invalid input is fine; not crashing is the property
		}
		var enc1 bytes.Buffer
		if err := EncodeReduced(&enc1, r1, 2); err != nil {
			t.Fatalf("re-encoding decoded reduction: %v", err)
		}
		var encSeq bytes.Buffer
		if err := EncodeReduced(&encSeq, r1Seq, 2); err != nil {
			t.Fatalf("re-encoding stream-decoded reduction: %v", err)
		}
		if !bytes.Equal(enc1.Bytes(), encSeq.Bytes()) {
			t.Fatal("parallel and sequential decodes re-encode differently")
		}
		r2, err := DecodeReduced(bytes.NewReader(enc1.Bytes()))
		if err != nil {
			t.Fatalf("decoding re-encoded reduction: %v", err)
		}
		var enc2 bytes.Buffer
		if err := EncodeReduced(&enc2, r2, 2); err != nil {
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
