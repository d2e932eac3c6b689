package trace

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// hostileV2Seeds derives adversarial variants of a valid TRC2 container
// for the fuzz corpus: block indexes that overlap, point out of range,
// or claim records in zero-length blocks — the shapes the footer
// validation exists to reject.
func hostileV2Seeds(valid []byte) [][]byte {
	le := binary.LittleEndian
	indexOff := le.Uint64(valid[len(valid)-trailerSize:])
	entry := func(b []byte, i int) []byte { return b[indexOff+4+uint64(i)*blockEntrySize:] }
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

// FuzzDecodeV2RoundTrip drives the TRC2 decoder (both the random-access
// block-parallel path and the sequential stream path) with arbitrary
// bytes and, whenever they decode, requires encode→decode→encode to be
// a fixed point, and the two paths to agree. Run as a smoke pass with
//
//	go test -fuzz=FuzzDecodeV2RoundTrip -fuzztime=10s ./internal/trace
func FuzzDecodeV2RoundTrip(f *testing.F) {
	var seed bytes.Buffer
	if err := EncodeV2(&seed, fuzzSeedTrace()); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add(seed.Bytes()[:len(seed.Bytes())/2]) // truncated file
	f.Add([]byte(traceMagicV2))               // bare magic
	f.Add([]byte{})
	var empty bytes.Buffer
	if err := EncodeV2(&empty, New("empty", 0)); err != nil {
		f.Fatal(err)
	}
	f.Add(empty.Bytes())
	for _, hostile := range hostileV2Seeds(seed.Bytes()) {
		f.Add(hostile)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			return // bound fuzz memory, not a format property
		}
		t1, err := Decode(bytes.NewReader(data)) // random-access path
		t1Seq, errSeq := Decode(streamOnly{bytes.NewReader(data)})
		if (err == nil) != (errSeq == nil) {
			t.Fatalf("decode paths disagree: parallel err=%v, sequential err=%v", err, errSeq)
		}
		if err != nil {
			return // invalid input is fine; not crashing is the property
		}
		var enc1 bytes.Buffer
		if err := EncodeV2(&enc1, t1); err != nil {
			t.Fatalf("re-encoding decoded trace: %v", err)
		}
		var encSeq bytes.Buffer
		if err := EncodeV2(&encSeq, t1Seq); err != nil {
			t.Fatalf("re-encoding stream-decoded trace: %v", err)
		}
		if !bytes.Equal(enc1.Bytes(), encSeq.Bytes()) {
			t.Fatal("parallel and sequential decodes re-encode differently")
		}
		t2, err := Decode(bytes.NewReader(enc1.Bytes()))
		if err != nil {
			t.Fatalf("decoding re-encoded trace: %v", err)
		}
		var enc2 bytes.Buffer
		if err := EncodeV2(&enc2, t2); err != nil {
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

// FuzzDecodeAnyVersion feeds both codecs' corpora through the
// version-sniffing entry point: whatever the bytes claim to be, Decode
// must either fail cleanly or produce a trace both codecs re-encode
// stably.
func FuzzDecodeAnyVersion(f *testing.F) {
	var v1, v2 bytes.Buffer
	if err := Encode(&v1, fuzzSeedTrace()); err != nil {
		f.Fatal(err)
	}
	if err := EncodeV2(&v2, fuzzSeedTrace()); err != nil {
		f.Fatal(err)
	}
	f.Add(v1.Bytes())
	f.Add(v2.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			return
		}
		tr, err := Decode(bytes.NewReader(data))
		if err != nil {
			return
		}
		var a, b bytes.Buffer
		if err := Encode(&a, tr); err != nil {
			t.Fatalf("v1 re-encode: %v", err)
		}
		if err := EncodeV2(&b, tr); err != nil {
			t.Fatalf("v2 re-encode: %v", err)
		}
		ta, err := Decode(bytes.NewReader(a.Bytes()))
		if err != nil {
			t.Fatalf("decoding v1 re-encode: %v", err)
		}
		tb, err := Decode(bytes.NewReader(b.Bytes()))
		if err != nil {
			t.Fatalf("decoding v2 re-encode: %v", err)
		}
		if ta.Name != tb.Name || ta.NumRanks() != tb.NumRanks() || ta.NumEvents() != tb.NumEvents() {
			t.Fatal("cross-version re-encode changed trace shape")
		}
	})
}
