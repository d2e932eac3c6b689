package trace

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"runtime"
	"testing"
)

// v2Layout locates the structural offsets of an encoded TRC2/TRR2
// container from its own (trusted, test-built) footer, so corruption
// tests can aim at exact fields.
type v2Layout struct {
	size      int
	headerEnd uint64
	indexOff  uint64
	entries   []BlockEntry
}

func layoutV2(t *testing.T, data []byte, magic string) v2Layout {
	t.Helper()
	le := binary.LittleEndian
	if len(data) < trailerSize {
		t.Fatalf("container too small: %d bytes", len(data))
	}
	indexOff := le.Uint64(data[len(data)-trailerSize:])
	n := le.Uint32(data[indexOff:])
	entries := make([]BlockEntry, n)
	for i := range entries {
		rec := data[indexOff+4+uint64(i)*blockEntrySize:]
		entries[i] = BlockEntry{
			Offset:  le.Uint64(rec[0:]),
			Length:  le.Uint32(rec[8:]),
			Rank:    le.Uint32(rec[12:]),
			Records: le.Uint32(rec[16:]),
			CRC:     le.Uint32(rec[20:]),
		}
	}
	headerEnd := indexOff
	if n > 0 {
		headerEnd = entries[0].Offset
	}
	return v2Layout{size: len(data), headerEnd: headerEnd, indexOff: indexOff, entries: entries}
}

// mutate returns a copy of data with f applied.
func mutate(data []byte, f func(b []byte, l v2Layout)) func(t *testing.T, l v2Layout) []byte {
	return func(t *testing.T, l v2Layout) []byte {
		b := append([]byte{}, data...)
		f(b, l)
		return b
	}
}

// decodeBoth runs one mutated container through the random-access and
// stream decoders, requiring a clean error (never a panic, never
// success) from each.
func decodeBoth(t *testing.T, name string, data []byte) {
	t.Helper()
	if _, err := Decode(bytes.NewReader(data)); err == nil {
		t.Errorf("%s: random-access decode accepted the corrupt container", name)
	}
	if _, err := Decode(streamOnly{bytes.NewReader(data)}); err == nil {
		t.Errorf("%s: stream decode accepted the corrupt container", name)
	}
}

// TestDecodeV2Corruption flips each structural field of a valid TRC2
// container — inline block headers, payload bytes (checksum), footer
// index entries, trailer — and requires both decode paths to reject
// every mutation cleanly.
func TestDecodeV2Corruption(t *testing.T) {
	data := encodeV2Bytes(t, v2TestTrace())
	l := layoutV2(t, data, traceMagicV2)
	if len(l.entries) != 4 {
		t.Fatalf("expected 4 blocks, found %d", len(l.entries))
	}
	le := binary.LittleEndian
	entryOff := func(i int) uint64 { return l.indexOff + 4 + uint64(i)*blockEntrySize }

	cases := []struct {
		name string
		mut  func(b []byte, l v2Layout)
	}{
		{"magic", func(b []byte, l v2Layout) { b[0] = 'X' }},
		{"trailing-magic", func(b []byte, l v2Layout) { b[len(b)-1] ^= 0xff }},
		{"trailer-index-offset", func(b []byte, l v2Layout) {
			le.PutUint64(b[len(b)-trailerSize:], l.indexOff+1)
		}},
		{"trailer-index-offset-out-of-range", func(b []byte, l v2Layout) {
			le.PutUint64(b[len(b)-trailerSize:], uint64(len(b)))
		}},
		{"index-block-count", func(b []byte, l v2Layout) {
			le.PutUint32(b[l.indexOff:], uint32(len(l.entries)+1))
		}},
		{"index-entry-offset-overlap", func(b []byte, l v2Layout) {
			le.PutUint64(b[entryOff(1):], l.entries[1].Offset-1)
		}},
		{"index-entry-offset-out-of-range", func(b []byte, l v2Layout) {
			le.PutUint64(b[entryOff(1):], uint64(len(b)))
		}},
		{"index-entry-length", func(b []byte, l v2Layout) {
			le.PutUint32(b[entryOff(0)+8:], l.entries[0].Length+1)
		}},
		{"index-entry-rank", func(b []byte, l v2Layout) {
			le.PutUint32(b[entryOff(0)+12:], l.entries[0].Rank+1)
		}},
		{"index-entry-records", func(b []byte, l v2Layout) {
			le.PutUint32(b[entryOff(0)+16:], l.entries[0].Records+1)
		}},
		{"index-entry-crc", func(b []byte, l v2Layout) {
			le.PutUint32(b[entryOff(0)+20:], l.entries[0].CRC^0xdeadbeef)
		}},
		{"block-header-rank", func(b []byte, l v2Layout) {
			le.PutUint32(b[l.entries[0].Offset:], l.entries[0].Rank+1)
		}},
		{"block-header-records", func(b []byte, l v2Layout) {
			le.PutUint32(b[l.entries[0].Offset+4:], l.entries[0].Records+1)
		}},
		{"block-header-length", func(b []byte, l v2Layout) {
			le.PutUint32(b[l.entries[0].Offset+8:], l.entries[0].Length+1)
		}},
		{"block-header-crc", func(b []byte, l v2Layout) {
			le.PutUint32(b[l.entries[0].Offset+12:], l.entries[0].CRC^1)
		}},
		{"block-payload-bit-flip", func(b []byte, l v2Layout) {
			b[l.entries[0].Offset+blockHeaderSize] ^= 0x40
		}},
		{"rank-count", func(b []byte, l v2Layout) {
			// The u32 rank count is the last 4 header bytes.
			le.PutUint32(b[l.headerEnd-4:], uint32(len(l.entries))+1)
		}},
		{"zero-length-block-with-records", func(b []byte, l v2Layout) {
			// Claim block 0 has zero payload but keep its record count:
			// both the contiguity check and the record minimum must fire.
			le.PutUint32(b[entryOff(0)+8:], 0)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			decodeBoth(t, tc.name, mutate(data, tc.mut)(t, l))
		})
	}
}

// TestDecodeV2HostileRecordCount: a block whose footer index entry and
// inline header agree on a huge record count, under a valid checksum,
// must fail cleanly on both decode paths before any buffer sized by that
// count is allocated: the count is checked against the payload bytes
// before an event buffer is drawn.
func TestDecodeV2HostileRecordCount(t *testing.T) {
	data := encodeV2Bytes(t, v2TestTrace())
	l := layoutV2(t, data, traceMagicV2)
	if got := l.entries[0].Length; got != 49 {
		t.Fatalf("rank 0 payload is %d bytes, the case is built for 49", got)
	}
	le := binary.LittleEndian
	for _, n := range []uint32{1 << 22, math.MaxUint32} {
		b := append([]byte{}, data...)
		le.PutUint32(b[l.entries[0].Offset+4:], n)
		le.PutUint32(b[l.indexOff+4+16:], n)
		for path, r := range map[string]io.Reader{
			"parallel":   bytes.NewReader(b),
			"sequential": streamOnly{bytes.NewReader(b)},
		} {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := Decode(r)
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Errorf("%s, %d records: decode accepted the container", path, n)
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew >= 64<<10 {
				t.Errorf("%s, %d records: decode allocated %d bytes, want under 64 KiB", path, n, grew)
			}
		}
	}
}

// TestDecodeV2Truncation truncates the container at every block
// boundary (and just inside each region) and requires a clean error —
// never a panic or a silent short read — from both decode paths.
func TestDecodeV2Truncation(t *testing.T) {
	data := encodeV2Bytes(t, v2TestTrace())
	l := layoutV2(t, data, traceMagicV2)
	cuts := map[string]int{
		"empty":          0,
		"mid-magic":      2,
		"after-magic":    4,
		"mid-header":     int(l.headerEnd) - 1,
		"after-header":   int(l.headerEnd),
		"at-index":       int(l.indexOff),
		"mid-index":      int(l.indexOff) + 5,
		"before-trailer": l.size - trailerSize,
		"mid-trailer":    l.size - 5,
		"last-byte":      l.size - 1,
	}
	for i, e := range l.entries {
		cuts["block-"+string(rune('0'+i))+"-start"] = int(e.Offset)
		cuts["block-"+string(rune('0'+i))+"-mid-header"] = int(e.Offset) + blockHeaderSize/2
		cuts["block-"+string(rune('0'+i))+"-end"] = int(e.Offset) + blockHeaderSize + int(e.Length)
	}
	for name, cut := range cuts {
		t.Run(name, func(t *testing.T) {
			if cut < 0 || cut >= len(data) {
				t.Fatalf("bad cut %d for %d-byte container", cut, len(data))
			}
			decodeBoth(t, name, data[:cut])
		})
	}
}

// TestDecodeV2HostileHeaderCaps drives the v2 header parser with the
// same hostile declarations the v1 decoder caps: giant name tables,
// rank counts, and block payload lengths must be rejected without large
// allocations (the inputs are only a few bytes long).
func TestDecodeV2HostileHeaderCaps(t *testing.T) {
	le := binary.LittleEndian
	build := func(f func(b *bytes.Buffer)) []byte {
		var b bytes.Buffer
		b.WriteString(traceMagicV2)
		f(&b)
		return b.Bytes()
	}
	u32 := func(b *bytes.Buffer, v uint32) {
		var tmp [4]byte
		le.PutUint32(tmp[:], v)
		b.Write(tmp[:])
	}
	cases := map[string][]byte{
		"huge-name-table": build(func(b *bytes.Buffer) {
			u32(b, 0) // empty workload name
			u32(b, 1<<30)
		}),
		"huge-rank-count": build(func(b *bytes.Buffer) {
			u32(b, 0)
			u32(b, 0)
			u32(b, 1<<21)
		}),
		"huge-block-payload": build(func(b *bytes.Buffer) {
			u32(b, 0)
			u32(b, 0)
			u32(b, 1) // one rank
			// inline block header declaring a payload beyond the format cap
			u32(b, 0)
			u32(b, 0)
			u32(b, maxBlockPayload+1)
			u32(b, 0)
		}),
	}
	for name, data := range cases {
		t.Run(name, func(t *testing.T) {
			decodeBoth(t, name, data)
		})
	}
}
