package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// Columnar trace container, version 2 (TRC2). The byte-level
// specification lives in docs/FORMATS.md; this comment is the summary.
//
// Where TRC1 stores fixed-width 41-byte records rank-sequentially, TRC2
// stores one self-contained block per rank: record fields are
// delta+varint encoded, every block carries an inline header (rank,
// record count, payload length, CRC32-C) and is indexed again by a
// footer block index so a random-access reader can verify the layout
// once and read any block by index. Layout:
//
//	magic   "TRC2" (4 bytes)
//	name    length-prefixed workload name
//	names   u32 count, then length-prefixed strings (the name table)
//	nranks  u32
//	per rank, in file order: one block
//	  u32 rank, u32 records, u32 payload length, u32 CRC32-C(payload)
//	  payload: per event — uvarint nameID, uvarint kind,
//	    svarint Δenter (vs previous event's enter, 0 at block start),
//	    svarint duration (exit−enter), svarint peer, svarint tag,
//	    svarint bytes, svarint root
//	footer
//	  u32 block count, then per block: u64 offset, u32 payload length,
//	    u32 rank, u32 records, u32 CRC32-C   (24 bytes each)
//	  u64 index offset, 4 × u8 trailing magic "TRC2"
//
// Family.Write and Open frame the TRR2 reduced container
// (internal/core) with the same blocks and footer; only the header
// strings and the payload grammar differ.

const traceMagicV2 = "TRC2"

const (
	// blockHeaderSize is the inline per-block header: rank, records,
	// payload length, CRC — the same fields the footer index repeats
	// (minus the offset), so both access paths verify each block.
	blockHeaderSize = 16
	// blockEntrySize is one footer index record.
	blockEntrySize = 24
	// trailerSize is the fixed tail: u64 index offset + 4-byte magic.
	trailerSize = 12
	// maxBlockPayload bounds one block's encoded payload; a rank bigger
	// than this cannot be written (and a header declaring more is
	// hostile).
	maxBlockPayload = 1 << 30
)

// castagnoli is the CRC32-C table used for all v2 block checksums.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// CRC32C returns the CRC32-C (Castagnoli) checksum of b, the per-block
// checksum of the v2 containers.
func CRC32C(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }

// BlockEntry is one record of a v2 footer block index: where a block
// lives, which rank it holds, how many records its payload encodes, and
// the payload checksum.
type BlockEntry struct {
	// Offset is the file offset of the block's inline header.
	Offset uint64
	// Length is the payload byte length (header excluded).
	Length uint32
	// Rank is the rank id the block holds.
	Rank uint32
	// Records counts the records the payload encodes (events for TRC2,
	// stored segments + execs for TRR2).
	Records uint32
	// CRC is the CRC32-C of the payload bytes.
	CRC uint32
}

// Family is a container family: the magics of its two versions and how
// many length-prefixed strings its header carries after the magic. Both
// versions of a family share the header (magic, header strings, name
// table, rank count) and differ in how the rank sections that follow it
// are framed: back to back in version 1, as checksummed blocks indexed
// by a footer in version 2. Write and Open are the only code that knows
// this framing; each family's codec supplies its rank section grammar.
type Family struct {
	// V1 and V2 are the magics of versions 1 and 2.
	V1, V2 string
	// Strings counts the header strings that follow the magic.
	Strings int
}

// traceFamily is TRC1/TRC2, whose header carries the workload name.
var traceFamily = Family{V1: traceMagic, V2: traceMagicV2, Strings: 1}

// magicSize is the length of every container magic.
const magicSize = 4

// HeaderSize returns the bytes Write spends before the first rank
// section: the magic, each header string and each table name behind its
// u32 length, the name count and the rank count.
func HeaderSize(header, names []string) int64 {
	n := int64(magicSize + 4 + 4)
	for _, s := range header {
		n += 4 + int64(len(s))
	}
	for _, s := range names {
		n += 4 + int64(len(s))
	}
	return n
}

// Size returns the bytes Write writes for the same version, header,
// names and n when its sections' payloads total payload bytes: the
// header and the payloads, plus in version 2 each block's inline header
// and the footer (block count, index and trailer).
func (f Family) Size(version int, header, names []string, n int, payload int64) int64 {
	size := HeaderSize(header, names) + payload
	if version == 2 {
		size += int64(n)*(blockHeaderSize+blockEntrySize) + 4 + trailerSize
	}
	return size
}

// Write writes a container of family f in the given version, 1 or 2, to
// w: the header — the version's magic, the header strings, names as the
// name table and n as the rank count — then the rank sections
// section(0), …, section(n-1) in file order. Version 1 writes each
// payload as it is. Version 2 writes it as a block behind an inline
// header carrying rank, records, the payload length and its checksum,
// and after the last block the footer index. Each payload is written
// before the next section call, so the caller may reuse one buffer. It
// returns the bytes written, the container's size. The first error ends
// the write and is returned.
func (f Family) Write(w io.Writer, version int, header, names []string, n int,
	section func(i int) (rank, records uint32, payload []byte)) (int64, error) {
	magic := f.V1
	if version == 2 {
		magic = f.V2
	}
	le := binary.LittleEndian
	hdr := append(make([]byte, 0, HeaderSize(header, names)), magic...)
	for _, s := range header {
		hdr = appendString(hdr, s)
	}
	hdr = le.AppendUint32(hdr, uint32(len(names)))
	for _, s := range names {
		hdr = appendString(hdr, s)
	}
	hdr = le.AppendUint32(hdr, uint32(n))
	bw := newBlockWriter(w)
	if _, err := bw.Write(hdr); err != nil {
		return 0, err
	}
	for i := 0; i < n; i++ {
		rank, records, payload := section(i)
		var err error
		if version == 2 {
			err = bw.writeBlock(rank, records, payload)
		} else {
			_, err = bw.Write(payload)
		}
		if err != nil {
			return 0, err
		}
	}
	var err error
	if version == 2 {
		err = bw.finish(magic)
	} else {
		err = bw.flush()
	}
	if err != nil {
		return 0, err
	}
	return int64(bw.off), nil
}

// appendString appends s to dst behind its u32 length.
func appendString(dst []byte, s string) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(s)))
	return append(dst, s...)
}

// blockWriter is Write's buffered destination. It tracks the running
// offset and the footer index of the version-2 blocks written so far.
//
// The first error — from the underlying writer or from an oversized
// payload — is latched: every later Write, writeBlock, finish or flush
// returns it, so a failing or short destination cannot leave a
// partially-consistent container behind a later nil return.
type blockWriter struct {
	bw      *bufio.Writer
	off     uint64
	entries []BlockEntry
	fail    error
}

// newBlockWriter returns a blockWriter emitting to w.
func newBlockWriter(w io.Writer) *blockWriter {
	return &blockWriter{bw: bufio.NewWriter(w)}
}

// Write implements io.Writer, tracking the running offset.
func (b *blockWriter) Write(p []byte) (int, error) {
	if b.fail != nil {
		return 0, b.fail
	}
	n, err := b.bw.Write(p)
	b.off += uint64(n)
	if err != nil {
		b.fail = err
	}
	return n, err
}

// writeBlock writes one block (inline header + payload) and records its
// footer index entry.
func (b *blockWriter) writeBlock(rank, records uint32, payload []byte) error {
	if b.fail != nil {
		return b.fail
	}
	if len(payload) > maxBlockPayload {
		b.fail = fmt.Errorf("trace: rank %d block payload %d bytes exceeds the %d-byte format limit",
			rank, len(payload), maxBlockPayload)
		return b.fail
	}
	e := BlockEntry{
		Offset:  b.off,
		Length:  uint32(len(payload)),
		Rank:    rank,
		Records: records,
		CRC:     CRC32C(payload),
	}
	b.entries = append(b.entries, e)
	var hdr [blockHeaderSize]byte
	le := binary.LittleEndian
	le.PutUint32(hdr[0:], e.Rank)
	le.PutUint32(hdr[4:], e.Records)
	le.PutUint32(hdr[8:], e.Length)
	le.PutUint32(hdr[12:], e.CRC)
	if _, err := b.Write(hdr[:]); err != nil {
		return err
	}
	_, err := b.Write(payload)
	return err
}

// finish writes the footer block index and trailer (index offset +
// magic) and flushes.
func (b *blockWriter) finish(magic string) error {
	if b.fail != nil {
		return b.fail
	}
	indexOff := b.off
	le := binary.LittleEndian
	var u32 [4]byte
	le.PutUint32(u32[:], uint32(len(b.entries)))
	if _, err := b.Write(u32[:]); err != nil {
		return err
	}
	var rec [blockEntrySize]byte
	for _, e := range b.entries {
		le.PutUint64(rec[0:], e.Offset)
		le.PutUint32(rec[8:], e.Length)
		le.PutUint32(rec[12:], e.Rank)
		le.PutUint32(rec[16:], e.Records)
		le.PutUint32(rec[20:], e.CRC)
		if _, err := b.Write(rec[:]); err != nil {
			return err
		}
	}
	var tail [trailerSize]byte
	le.PutUint64(tail[0:], indexOff)
	copy(tail[8:], magic)
	if _, err := b.Write(tail[:]); err != nil {
		return err
	}
	return b.flush()
}

// flush writes the buffered bytes through to the destination.
func (b *blockWriter) flush() error {
	if b.fail == nil {
		b.fail = b.bw.Flush()
	}
	return b.fail
}

// Cursor walks a varint-encoded block payload with bounds checking.
type Cursor struct {
	b   []byte
	off int
}

// NewCursor returns a cursor over payload.
func NewCursor(payload []byte) *Cursor { return &Cursor{b: payload} }

// Len returns the number of unread payload bytes.
func (c *Cursor) Len() int { return len(c.b) - c.off }

// Uvarint reads one unsigned varint.
func (c *Cursor) Uvarint() (uint64, error) {
	v, n := binary.Uvarint(c.b[c.off:])
	if n <= 0 {
		return 0, varintError(c.off)
	}
	c.off += n
	return v, nil
}

// Varint reads one zigzag-encoded signed varint.
func (c *Cursor) Varint() (int64, error) {
	v, n := binary.Varint(c.b[c.off:])
	if n <= 0 {
		return 0, varintError(c.off)
	}
	c.off += n
	return v, nil
}

// Done errors unless the payload was consumed exactly.
func (c *Cursor) Done() error {
	if c.off != len(c.b) {
		return fmt.Errorf("trace: %d trailing bytes after the last payload record", len(c.b)-c.off)
	}
	return nil
}

// AppendEventsV2 appends the v2 varint encoding of events to dst and
// returns the extended slice. Enter stamps are delta-encoded against the
// previous event in the slice (the chain starts at 0, so stored-segment
// events, which are relative to the segment start, encode compactly too).
func AppendEventsV2(dst []byte, nt *NameTable, events []Event) []byte {
	var prev Time
	for _, e := range events {
		dst = binary.AppendUvarint(dst, uint64(nt.ID(e.Name)))
		dst = binary.AppendUvarint(dst, uint64(e.Kind))
		dst = binary.AppendVarint(dst, e.Enter-prev)
		prev = e.Enter
		dst = binary.AppendVarint(dst, e.Exit-e.Enter)
		dst = binary.AppendVarint(dst, int64(e.Peer))
		dst = binary.AppendVarint(dst, int64(e.Tag))
		dst = binary.AppendVarint(dst, e.Bytes)
		dst = binary.AppendVarint(dst, int64(e.Root))
	}
	return dst
}

// minEventV2Size is the smallest possible encoded event (eight one-byte
// varints); record counts are validated against it before allocating.
const minEventV2Size = 8

// ParseEventsV2 parses n v2 event records from c, resolving names
// against the table. It returns nil for n == 0, matching the v1
// decoder's shape for empty ranks.
func ParseEventsV2(c *Cursor, names []string, n uint32) ([]Event, error) {
	return ParseEventsV2Into(c, names, n, nil)
}

// ParseEventsV2Into is ParseEventsV2 writing into dst's storage (appended
// from dst[:0]; grown as needed). Decoders pass pooled event buffers so
// steady-state decodes reuse storage instead of allocating per rank.
func ParseEventsV2Into(c *Cursor, names []string, n uint32, dst []Event) ([]Event, error) {
	if n == 0 {
		return nil, nil
	}
	if err := checkEventsV2(c, n); err != nil {
		return nil, err
	}
	events := dst[:0]
	if cap(events) == 0 {
		events = make([]Event, 0, n)
	}
	// The record loop runs over a local slice and offset. Delta encoding
	// makes almost every field a one-byte varint, decoded here in line;
	// only longer ones go through encoding/binary.
	b, off := c.b, c.off
	var f [8]uint64 // nameID, kind, Δenter, duration, peer, tag, bytes, root
	var prev Time
	for j := uint32(0); j < n; j++ {
		for k := range f {
			if off < len(b) && b[off] < 0x80 {
				f[k] = uint64(b[off])
				off++
				continue
			}
			v, m := binary.Uvarint(b[off:])
			if m <= 0 {
				return nil, varintError(off)
			}
			f[k] = v
			off += m
		}
		if f[0] >= uint64(len(names)) {
			return nil, fmt.Errorf("trace: name id %d out of range (%d names)", f[0], len(names))
		}
		if f[1] >= uint64(numKinds) {
			return nil, fmt.Errorf("trace: unknown event kind %d", f[1])
		}
		// A zigzag-mapped value fits in int32 exactly when it is below 2^32.
		if f[4]|f[5]|f[7] >= 1<<32 {
			return nil, int32Overflow(f[4], f[5], f[7])
		}
		enter := prev + unzigzag(f[2])
		prev = enter
		events = append(events, Event{
			Name:  names[f[0]],
			Kind:  EventKind(f[1]),
			Enter: enter,
			Exit:  enter + unzigzag(f[3]),
			Peer:  int32(unzigzag(f[4])),
			Tag:   int32(unzigzag(f[5])),
			Bytes: unzigzag(f[6]),
			Root:  int32(unzigzag(f[7])),
		})
	}
	c.off = off
	return events, nil
}

// checkEventsV2 rejects a record count the rest of c's payload cannot
// hold: every record costs at least minEventV2Size bytes, so a count
// that passes is bounded by the payload bytes actually present, and a
// buffer of that many events may be allocated.
func checkEventsV2(c *Cursor, n uint32) error {
	if uint64(c.Len()) < uint64(n)*minEventV2Size {
		return fmt.Errorf("trace: %d events declared but only %d payload bytes remain", n, c.Len())
	}
	return nil
}

// unzigzag maps a zigzag-encoded uvarint back to its signed value, as
// binary.Varint does.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// varintError reports a varint at payload offset off that is truncated
// or longer than binary.MaxVarintLen64 bytes.
func varintError(off int) error {
	return fmt.Errorf("trace: truncated or overlong varint at payload offset %d", off)
}

// int32Overflow names the first of the zigzag-mapped peer, tag and root
// fields that does not fit in int32 (the v1 record and the data model
// hold them as i32).
func int32Overflow(peer, tag, root uint64) error {
	field, u := "peer", peer
	if peer < 1<<32 {
		field, u = "tag", tag
		if tag < 1<<32 {
			field, u = "root", root
		}
	}
	return fmt.Errorf("trace: %s value %d overflows int32", field, unzigzag(u))
}

// parseRankV2 parses one TRC2 block payload into a rank, its events in
// a buffer drawn from the event pool once the block's record count has
// been checked against its payload bytes.
func parseRankV2(e BlockEntry, payload []byte, names []string) (*RankTrace, error) {
	cur := NewCursor(payload)
	if err := checkEventsV2(cur, e.Records); err != nil {
		return nil, fmt.Errorf("trace: rank %d block: %w", e.Rank, err)
	}
	buf := eventBufs.Get(int(e.Records))
	events, err := ParseEventsV2Into(cur, names, e.Records, buf)
	if err == nil {
		err = cur.Done()
	}
	if err != nil {
		eventBufs.Put(buf)
		return nil, fmt.Errorf("trace: rank %d block: %w", e.Rank, err)
	}
	return &RankTrace{Rank: int(e.Rank), Events: events}, nil
}
