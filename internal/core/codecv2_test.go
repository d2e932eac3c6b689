package core

import (
	"bytes"
	"encoding/binary"
	"io"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/segment"
	"repro/internal/trace"
)

// Footer geometry of the shared v2 block container, mirrored from
// docs/FORMATS.md so corruption tests can aim at exact fields without
// the trace package exporting its layout constants.
const (
	v2TrailerSize    = 12 // u64 index offset + 4-byte trailing magic
	v2BlockEntrySize = 24 // u64 offset + u32 length, rank, records, crc
	v2BlockHeader    = 16 // u32 rank, records, payload length, crc
)

// streamOnly hides ReaderAt/Seeker so a decode is forced down the
// sequential path.
type streamOnly struct{ io.Reader }

// v2TestReduced builds a reduction covering the TRR2 codec's edge
// shapes: a normal rank, a rank with stored segments but no execs, and
// an empty rank. Slices mirror the decoder's always-allocated shapes so
// round trips compare with reflect.DeepEqual.
func v2TestReduced() *Reduced {
	r := fuzzSeedReduced()
	r.Name = "v2_codec"
	r.Ranks = append(r.Ranks,
		RankReduced{
			Rank: 2,
			Stored: []*segment.Segment{{
				Context: "solo", Rank: 2, End: -7, Weight: 2,
				Events: []trace.Event{
					{Name: "late", Kind: trace.KindCompute, Enter: -3, Exit: -1, Peer: trace.NoPeer, Root: trace.NoPeer},
				},
			}},
			Execs: []Exec{},
		},
		RankReduced{Rank: 9, Stored: []*segment.Segment{}, Execs: []Exec{}},
	)
	return r
}

func encodeReducedV2Bytes(t *testing.T, r *Reduced) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := EncodeReduced(&buf, r, 2); err != nil {
		t.Fatalf("EncodeReduced: %v", err)
	}
	return buf.Bytes()
}

func TestEncodeReducedV2RoundTrip(t *testing.T) {
	want := v2TestReduced()
	data := encodeReducedV2Bytes(t, want)
	for name, r := range map[string]io.Reader{
		"parallel":   bytes.NewReader(data),
		"sequential": streamOnly{bytes.NewReader(data)},
	} {
		got, err := DecodeReduced(r)
		if err != nil {
			t.Fatalf("%s decode: %v", name, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("%s v2 round trip changed the reduction:\nwant %+v\ngot  %+v", name, want, got)
		}
	}
}

// TestDecodeReducedV2MatchesV1 pins the cross-version contract: the
// same reduction decoded from a TRR1 container and a TRR2 container
// must be structurally identical.
func TestDecodeReducedV2MatchesV1(t *testing.T) {
	src := v2TestReduced()
	var v1buf bytes.Buffer
	if err := EncodeReduced(&v1buf, src, 1); err != nil {
		t.Fatal(err)
	}
	fromV1, err := DecodeReduced(bytes.NewReader(v1buf.Bytes()))
	if err != nil {
		t.Fatalf("v1 decode: %v", err)
	}
	fromV2, err := DecodeReduced(bytes.NewReader(encodeReducedV2Bytes(t, src)))
	if err != nil {
		t.Fatalf("v2 decode: %v", err)
	}
	if !reflect.DeepEqual(fromV1, fromV2) {
		t.Errorf("v1 and v2 decodes of the same reduction differ:\nv1 %+v\nv2 %+v", fromV1, fromV2)
	}
}

func TestDecodeReducedV2WorkerCounts(t *testing.T) {
	want := v2TestReduced()
	data := encodeReducedV2Bytes(t, want)
	for _, workers := range []int{1, 2, 7, 64} {
		got, err := DecodeReducedWith(bytes.NewReader(data), trace.DecoderOptions{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("workers=%d: decoded reduction differs", workers)
		}
	}
}

func TestReducedV2SmallerThanV1(t *testing.T) {
	r := v2TestReduced()
	v1, v2 := EncodedReducedSize(r), int64(len(encodeReducedV2Bytes(t, r)))
	if v2 >= v1 {
		t.Errorf("v2 encoding (%d bytes) not smaller than v1 (%d bytes)", v2, v1)
	}
}

// TestParseRankReducedV2Rejects drives the payload parser with
// semantically hostile payloads that pass the container checksums: the
// validation has to live in the parser itself.
func TestParseRankReducedV2Rejects(t *testing.T) {
	names := []string{"ctx"}
	entry := func(records uint32) trace.BlockEntry { return trace.BlockEntry{Rank: 0, Records: records} }
	uv := func(dst []byte, v uint64) []byte { return binary.AppendUvarint(dst, v) }
	sv := func(dst []byte, v int64) []byte { return binary.AppendVarint(dst, v) }

	cases := []struct {
		name    string
		records uint32
		payload []byte
	}{
		{"records-mismatch", 3, uv(uv(nil, 1), 1)},
		{"exec-id-out-of-range", 1, sv(uv(uv(uv(nil, 0), 1), 5), 10)}, // 0 stored, 1 exec with id 5
		{"context-id-out-of-range", 1, uv(uv(sv(uv(uv(uv(nil, 1), 0), 99), 0), 0), 0)},
		{"huge-stored-count", 1 << 25, uv(uv(nil, 1<<25), 0)},
		{"counts-exceed-payload", 200, uv(uv(nil, 0), 200)},
		{"truncated-segment", 1, uv(uv(uv(nil, 1), 0), 0)},
		{"trailing-garbage", 0, append(uv(uv(nil, 0), 0), 0xab)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := entry(tc.records)
			e.Length = uint32(len(tc.payload))
			if _, err := parseRankReducedV2(e, tc.payload, names); err == nil {
				t.Errorf("%s: parser accepted a hostile payload", tc.name)
			}
		})
	}
}

func decodeReducedBoth(t *testing.T, name string, data []byte) {
	t.Helper()
	if _, err := DecodeReduced(bytes.NewReader(data)); err == nil {
		t.Errorf("%s: random-access decode accepted the corrupt container", name)
	}
	if _, err := DecodeReduced(streamOnly{bytes.NewReader(data)}); err == nil {
		t.Errorf("%s: stream decode accepted the corrupt container", name)
	}
}

// TestDecodeReducedV2Corruption flips structural fields of a valid TRR2
// container; both decode paths must reject every mutation cleanly.
func TestDecodeReducedV2Corruption(t *testing.T) {
	data := encodeReducedV2Bytes(t, v2TestReduced())
	le := binary.LittleEndian
	indexOff := le.Uint64(data[len(data)-v2TrailerSize:])
	nBlocks := le.Uint32(data[indexOff:])
	if nBlocks != 4 {
		t.Fatalf("expected 4 blocks, found %d", nBlocks)
	}
	entryOff := func(i int) uint64 { return indexOff + 4 + uint64(i)*v2BlockEntrySize }
	block0 := le.Uint64(data[entryOff(0):])

	cases := []struct {
		name string
		mut  func(b []byte)
	}{
		{"magic", func(b []byte) { b[0] = 'X' }},
		{"trailing-magic", func(b []byte) { b[len(b)-1] ^= 0xff }},
		{"trailer-index-offset", func(b []byte) { le.PutUint64(b[len(b)-v2TrailerSize:], indexOff+1) }},
		{"index-block-count", func(b []byte) { le.PutUint32(b[indexOff:], nBlocks+1) }},
		{"index-entry-offset", func(b []byte) { le.PutUint64(b[entryOff(1):], le.Uint64(b[entryOff(1):])-1) }},
		{"index-entry-crc", func(b []byte) { b[entryOff(0)+20] ^= 0xff }},
		{"block-header-records", func(b []byte) { le.PutUint32(b[block0+4:], le.Uint32(b[block0+4:])+1) }},
		{"block-header-crc", func(b []byte) { b[block0+12] ^= 1 }},
		{"payload-bit-flip", func(b []byte) { b[block0+v2BlockHeader] ^= 0x40 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := append([]byte{}, data...)
			tc.mut(b)
			decodeReducedBoth(t, tc.name, b)
		})
	}
}

// TestDecodeReducedV2Truncation cuts the container at every block
// boundary and inside each region; both paths must error cleanly.
func TestDecodeReducedV2Truncation(t *testing.T) {
	data := encodeReducedV2Bytes(t, v2TestReduced())
	le := binary.LittleEndian
	indexOff := int(le.Uint64(data[len(data)-v2TrailerSize:]))
	nBlocks := int(le.Uint32(data[indexOff:]))
	cuts := map[string]int{
		"empty":       0,
		"mid-magic":   2,
		"at-index":    indexOff,
		"mid-index":   indexOff + 5,
		"mid-trailer": len(data) - 5,
		"last-byte":   len(data) - 1,
	}
	for i := 0; i < nBlocks; i++ {
		off := int(le.Uint64(data[indexOff+4+i*v2BlockEntrySize:]))
		length := int(le.Uint32(data[indexOff+4+i*v2BlockEntrySize+8:]))
		name := "block-" + string(rune('0'+i))
		cuts[name+"-start"] = off
		cuts[name+"-mid-header"] = off + v2BlockHeader/2
		cuts[name+"-end"] = off + v2BlockHeader + length
	}
	for name, cut := range cuts {
		t.Run(name, func(t *testing.T) {
			if cut < 0 || cut >= len(data) {
				t.Fatalf("bad cut %d for %d-byte container", cut, len(data))
			}
			decodeReducedBoth(t, name, data[:cut])
		})
	}
}

// TestDecodeReducedFanOut: a random-access TRR2 container decodes by
// index into its rank slots, equal to the stream decode at every worker
// count, and with blocks 3 and 7 corrupt it reports block 3 every time,
// whichever worker meets a bad block first.
func TestDecodeReducedFanOut(t *testing.T) {
	forceWorkers(t, 4)
	red, err := Reduce(buildMultiRankTrace("fan_out", 12, 9, rand.New(rand.NewSource(4))), NewIterAvg())
	if err != nil {
		t.Fatal(err)
	}
	data := encodeReducedV2Bytes(t, red)
	want, err := DecodeReduced(streamOnly{bytes.NewReader(data)})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 16} {
		got, err := DecodeReducedWith(bytes.NewReader(data), trace.DecoderOptions{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: fanned-out decode differs from the stream decode", workers)
		}
	}
	bad := append([]byte{}, data...)
	for _, k := range []int{3, 7} {
		bad[blockOffset(t, bad, k)+16] ^= 0xff
	}
	for rep := 0; rep < 100; rep++ {
		_, err := DecodeReduced(bytes.NewReader(bad))
		if err == nil || !strings.HasPrefix(err.Error(), "trace: rank 3 block checksum") {
			t.Fatalf("run %d: error = %v, want rank 3's checksum", rep, err)
		}
	}
}
