package trace

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
)

// Columnar trace container, version 2 (TRC2). The byte-level
// specification lives in docs/FORMATS.md; this comment is the summary.
//
// Where TRC1 stores fixed-width 41-byte records rank-sequentially, TRC2
// stores one self-contained block per rank: record fields are
// delta+varint encoded, every block carries an inline header (rank,
// record count, payload length, CRC32-C) and is indexed again by a
// footer block index so a random-access reader can verify the layout
// once and fan independent blocks out across a worker pool. Layout:
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
// The same block/footer machinery is shared with the TRR2 reduced
// container (internal/core); only the header and payload grammar differ.

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
	// maxBlocks matches the rank-count cap: v2 stores one block per rank.
	maxBlocks = 1 << 20
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

// BlockWriter writes a v2 block container: header bytes through Write,
// then one WriteBlock per rank, then Finish for the footer. It tracks
// offsets and accumulates the footer index as blocks are written.
//
// The first error — from the underlying writer or from an oversized
// payload — is latched: every subsequent Write, WriteBlock, or Finish
// call returns it, so a failing or short destination cannot leave a
// partially-consistent container behind a later nil return.
type BlockWriter struct {
	bw      *bufio.Writer
	off     uint64
	entries []BlockEntry
	fail    error
}

// NewBlockWriter returns a BlockWriter emitting to w.
func NewBlockWriter(w io.Writer) *BlockWriter {
	return &BlockWriter{bw: bufio.NewWriter(w)}
}

// Write implements io.Writer for the container header, tracking the
// running offset.
func (b *BlockWriter) Write(p []byte) (int, error) {
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

// Err returns the latched first error, if any.
func (b *BlockWriter) Err() error { return b.fail }

// WriteBlock writes one block (inline header + payload) and records its
// footer index entry.
func (b *BlockWriter) WriteBlock(rank, records uint32, payload []byte) error {
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

// Finish writes the footer block index and trailer (index offset +
// magic) and flushes.
func (b *BlockWriter) Finish(magic string) error {
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
	if err := b.bw.Flush(); err != nil {
		b.fail = err
		return err
	}
	return nil
}

// ReadBlockIndex reads a v2 footer from ra (a container of size bytes
// whose header ends at headerEnd) and validates it fully: trailer magic,
// index bounds, and a contiguous, non-overlapping block layout exactly
// spanning headerEnd..indexOffset. Every hostile index shape —
// overlapping, out-of-range, or gapped blocks, zero-length blocks
// claiming records — is rejected here or by the per-block checks.
func ReadBlockIndex(ra io.ReaderAt, size int64, magic string, headerEnd uint64) ([]BlockEntry, error) {
	return ReadBlockIndexLimit(ra, size, magic, headerEnd, maxBlocks)
}

// ReadBlockIndexLimit is ReadBlockIndex with an explicit block-count cap
// (decoders pass their DecodeLimits rank cap, since v2 containers hold
// one block per rank).
func ReadBlockIndexLimit(ra io.ReaderAt, size int64, magic string, headerEnd uint64, maxCount uint32) ([]BlockEntry, error) {
	if size < int64(headerEnd)+trailerSize {
		return nil, fmt.Errorf("trace: %s file truncated: %d bytes leaves no room for a footer", magic, size)
	}
	var tail [trailerSize]byte
	if _, err := ra.ReadAt(tail[:], size-trailerSize); err != nil {
		return nil, fmt.Errorf("trace: reading %s trailer: %w", magic, noEOF(err))
	}
	if string(tail[8:]) != magic {
		return nil, fmt.Errorf("trace: bad trailing magic %q, want %q", tail[8:], magic)
	}
	le := binary.LittleEndian
	indexOff := le.Uint64(tail[0:])
	if indexOff < headerEnd || indexOff > uint64(size)-trailerSize {
		return nil, fmt.Errorf("trace: %s block index offset %d outside body %d..%d",
			magic, indexOff, headerEnd, size-trailerSize)
	}
	indexLen := uint64(size) - trailerSize - indexOff
	if indexLen < 4 {
		return nil, fmt.Errorf("trace: %s block index truncated (%d bytes)", magic, indexLen)
	}
	buf := make([]byte, indexLen)
	if _, err := ra.ReadAt(buf, int64(indexOff)); err != nil {
		return nil, fmt.Errorf("trace: reading %s block index: %w", magic, noEOF(err))
	}
	n := le.Uint32(buf[0:])
	if n > maxCount {
		return nil, fmt.Errorf("trace: %s block count %d exceeds the %d cap", magic, n, maxCount)
	}
	if want := 4 + uint64(n)*blockEntrySize; want != indexLen {
		return nil, fmt.Errorf("trace: %s block index declares %d blocks (%d bytes) but spans %d bytes",
			magic, n, want, indexLen)
	}
	entries := make([]BlockEntry, n)
	off := headerEnd
	for i := range entries {
		rec := buf[4+i*blockEntrySize:]
		e := BlockEntry{
			Offset:  le.Uint64(rec[0:]),
			Length:  le.Uint32(rec[8:]),
			Rank:    le.Uint32(rec[12:]),
			Records: le.Uint32(rec[16:]),
			CRC:     le.Uint32(rec[20:]),
		}
		if e.Length > maxBlockPayload {
			return nil, fmt.Errorf("trace: %s block %d payload length %d too large", magic, i, e.Length)
		}
		// Blocks must tile the body exactly in file order: the encoder
		// writes them contiguously, so any other layout (overlap, gap,
		// out-of-range) is corruption or hostile.
		if e.Offset != off {
			return nil, fmt.Errorf("trace: %s block %d at offset %d, want contiguous offset %d",
				magic, i, e.Offset, off)
		}
		off += blockHeaderSize + uint64(e.Length)
		if off > indexOff {
			return nil, fmt.Errorf("trace: %s block %d (len %d) overruns the block index at %d",
				magic, i, e.Length, indexOff)
		}
		entries[i] = e
	}
	if off != indexOff {
		return nil, fmt.Errorf("trace: %s blocks end at %d but the block index starts at %d", magic, off, indexOff)
	}
	return entries, nil
}

// ReadBlockAt reads block e from ra, verifying the inline header against
// the index entry and the payload checksum, and returns the payload.
func ReadBlockAt(ra io.ReaderAt, e BlockEntry) ([]byte, error) {
	payload, _, err := ReadBlockAtBuf(ra, e, nil)
	return payload, err
}

// ReadBlockAtBuf is ReadBlockAt reading through buf when its capacity
// suffices, so pooled callers avoid a fresh allocation per block. It
// returns the payload plus the backing buffer actually used (grown when
// buf was too small); the payload aliases the backing buffer, so the
// caller may recycle the backing only once the payload is fully parsed.
func ReadBlockAtBuf(ra io.ReaderAt, e BlockEntry, buf []byte) (payload, backing []byte, err error) {
	need := blockHeaderSize + int(e.Length)
	if cap(buf) < need {
		buf = make([]byte, need)
	}
	buf = buf[:need]
	if _, err := ra.ReadAt(buf, int64(e.Offset)); err != nil {
		return nil, buf, fmt.Errorf("trace: reading block for rank %d: %w", e.Rank, noEOF(err))
	}
	le := binary.LittleEndian
	got := BlockEntry{
		Offset:  e.Offset,
		Rank:    le.Uint32(buf[0:]),
		Records: le.Uint32(buf[4:]),
		Length:  le.Uint32(buf[8:]),
		CRC:     le.Uint32(buf[12:]),
	}
	if got != e {
		return nil, buf, fmt.Errorf("trace: block header %+v does not match index entry %+v", got, e)
	}
	payload = buf[blockHeaderSize:]
	if crc := CRC32C(payload); crc != e.CRC {
		return nil, buf, fmt.Errorf("trace: rank %d block checksum %08x, want %08x", e.Rank, crc, e.CRC)
	}
	return payload, buf, nil
}

// ReadBlock reads the next inline block from r sequentially. offset is
// the block's file position (for the index entry the caller later checks
// against the footer). The payload is read into buf when its capacity
// suffices, so a caller that passes the previous payload back reuses one
// buffer across blocks; otherwise the payload grows with the bytes
// actually read, so a hostile length cannot force a large upfront
// allocation.
func ReadBlock(r io.Reader, offset uint64, buf []byte) (BlockEntry, []byte, error) {
	var hdr [blockHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return BlockEntry{}, nil, noEOF(err)
	}
	le := binary.LittleEndian
	e := BlockEntry{
		Offset:  offset,
		Rank:    le.Uint32(hdr[0:]),
		Records: le.Uint32(hdr[4:]),
		Length:  le.Uint32(hdr[8:]),
		CRC:     le.Uint32(hdr[12:]),
	}
	if e.Length > maxBlockPayload {
		return BlockEntry{}, nil, fmt.Errorf("trace: block payload length %d too large", e.Length)
	}
	var payload []byte
	if n := int(e.Length); cap(buf) >= n {
		payload = buf[:n]
		if _, err := io.ReadFull(r, payload); err != nil {
			return BlockEntry{}, nil, noEOF(err)
		}
	} else {
		grown := bytes.NewBuffer(buf[:0])
		grown.Grow(min(n, 1<<16))
		if m, err := io.Copy(grown, io.LimitReader(r, int64(n))); err != nil {
			return BlockEntry{}, nil, err
		} else if m < int64(n) {
			return BlockEntry{}, nil, io.ErrUnexpectedEOF
		}
		payload = grown.Bytes()
	}
	if crc := CRC32C(payload); crc != e.CRC {
		return BlockEntry{}, nil, fmt.Errorf("trace: rank %d block checksum %08x, want %08x", e.Rank, crc, e.CRC)
	}
	return e, payload, nil
}

// CheckBlockFooter reads the footer from r after the last block and
// verifies it matches the blocks actually read: same entries in the same
// order, index at indexOff, correct trailing magic. The sequential
// reader calls this so that stream decoding is exactly as strict as the
// random-access path.
func CheckBlockFooter(r io.Reader, magic string, observed []BlockEntry, indexOff uint64) error {
	le := binary.LittleEndian
	var u32 [4]byte
	if _, err := io.ReadFull(r, u32[:]); err != nil {
		return fmt.Errorf("trace: reading %s block index: %w", magic, noEOF(err))
	}
	n := le.Uint32(u32[:])
	if int(n) != len(observed) {
		return fmt.Errorf("trace: %s block index declares %d blocks, read %d", magic, n, len(observed))
	}
	var rec [blockEntrySize]byte
	for i, want := range observed {
		if _, err := io.ReadFull(r, rec[:]); err != nil {
			return fmt.Errorf("trace: reading %s block index: %w", magic, noEOF(err))
		}
		got := BlockEntry{
			Offset:  le.Uint64(rec[0:]),
			Length:  le.Uint32(rec[8:]),
			Rank:    le.Uint32(rec[12:]),
			Records: le.Uint32(rec[16:]),
			CRC:     le.Uint32(rec[20:]),
		}
		if got != want {
			return fmt.Errorf("trace: %s block index entry %d is %+v, block read as %+v", magic, i, got, want)
		}
	}
	var tail [trailerSize]byte
	if _, err := io.ReadFull(r, tail[:]); err != nil {
		return fmt.Errorf("trace: reading %s trailer: %w", magic, noEOF(err))
	}
	if got := le.Uint64(tail[0:]); got != indexOff {
		return fmt.Errorf("trace: %s trailer index offset %d, want %d", magic, got, indexOff)
	}
	if string(tail[8:]) != magic {
		return fmt.Errorf("trace: bad trailing magic %q, want %q", tail[8:], magic)
	}
	return nil
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

// NameIDs resolves event names to their v2 name-table ids. *NameTable
// implements it; the pipelined reduce-to-writer path substitutes
// immutable per-rank snapshots so encode workers can read ids without
// synchronizing against later ranks still registering names.
//
// Implementations handed to the concurrent encoders must be safe for
// lock-free reads: either fully pre-populated (a prescanned NameTable is
// never written during encode) or a plain read-only map.
type NameIDs interface {
	// ID returns the table id for name, which must already be present.
	ID(name string) uint32
}

// AppendEventsV2 appends the v2 varint encoding of events to dst and
// returns the extended slice. Enter stamps are delta-encoded against the
// previous event in the slice (the chain starts at 0, so stored-segment
// events, which are relative to the segment start, encode compactly too).
func AppendEventsV2(dst []byte, nt NameIDs, events []Event) []byte {
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
// from dst[:0]; grown as needed). Decoders pass recycled event buffers so
// steady-state decodes reuse storage instead of allocating per rank.
func ParseEventsV2Into(c *Cursor, names []string, n uint32, dst []Event) ([]Event, error) {
	if n == 0 {
		return nil, nil
	}
	// Every record costs at least minEventV2Size payload bytes, so this
	// rejects hostile counts before the allocation below: len(events) is
	// bounded by the payload bytes actually present.
	if uint64(c.Len()) < uint64(n)*minEventV2Size {
		return nil, fmt.Errorf("trace: %d events declared but only %d payload bytes remain", n, c.Len())
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

// countingReader counts consumed bytes so positions can be recovered
// under a bufio.Reader (position = count - buffered).
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// SectionFor returns a section reader spanning r's remaining bytes when
// r supports random access (io.ReaderAt + io.Seeker), restoring r's seek
// position. Version-aware openers use it to give v2 containers the
// block-parallel path while plain streams fall back to sequential decode.
//
// ok=false with a nil error means r is a plain stream: its position is
// unchanged and the caller may fall back to sequential decode. A
// non-nil error means the probe moved r's position and could not
// restore it — the reader is no longer usable and the caller must
// propagate the error rather than read on from an arbitrary offset.
func SectionFor(r io.Reader) (*io.SectionReader, bool, error) {
	ra, ok := r.(io.ReaderAt)
	if !ok {
		return nil, false, nil
	}
	sk, ok := r.(io.Seeker)
	if !ok {
		return nil, false, nil
	}
	base, err := sk.Seek(0, io.SeekCurrent)
	if err != nil {
		return nil, false, nil
	}
	end, err := sk.Seek(0, io.SeekEnd)
	if err != nil {
		return nil, false, nil
	}
	if _, err := sk.Seek(base, io.SeekStart); err != nil {
		return nil, false, fmt.Errorf("trace: restoring position after random-access probe: %w", err)
	}
	if end < base {
		return nil, false, nil
	}
	return io.NewSectionReader(ra, base, end-base), true, nil
}

// PeekMagic reads the 4-byte magic at the start of sr without consuming.
func PeekMagic(sr *io.SectionReader) (string, error) {
	var magic [4]byte
	if _, err := sr.ReadAt(magic[:], 0); err != nil {
		return "", err
	}
	return string(magic[:]), nil
}

// readV2TraceHeader reads the TRC2 header after the magic: workload
// name, name table, rank count — the same grammar and caps as v1.
func readV2TraceHeader(br *bufio.Reader, lim DecodeLimits) (name string, names []string, nRanks int, err error) {
	return readTraceHeader(br, lim)
}

// v2blockResult carries one decoded block from a worker to NextRank.
type v2blockResult struct {
	rt  *RankTrace
	err error
}

// v2parallelDecoder decodes TRC2 blocks on a bounded worker pool in
// index order. Workers claim blocks through an atomic counter; a
// semaphore bounds decoded-but-unconsumed blocks to the worker count, so
// memory stays at O(workers) ranks however large the file is.
type v2parallelDecoder struct {
	sr      *io.SectionReader
	names   []string
	entries []BlockEntry
	workers int
	ctx     context.Context

	start   sync.Once
	claim   atomic.Int64
	sem     chan struct{}
	results []chan v2blockResult
	abort   chan struct{}
	stop    sync.Once
	next    int
	fail    error
	// bufs recycles block read buffers across decodes: decoded events
	// hold name-table strings, never payload bytes, so a block's buffer
	// is free for reuse as soon as its payload has been parsed.
	bufs sync.Pool
	// free recycles event buffers the consumer returns via
	// Decoder.Recycle.
	free *eventFreeList
}

func newV2ParallelDecoder(sr *io.SectionReader, opts DecoderOptions) (*Decoder, error) {
	workers := opts.Workers
	cr := &countingReader{r: io.NewSectionReader(sr, 0, sr.Size())}
	br := bufio.NewReader(cr)
	magic := make([]byte, len(traceMagicV2))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	name, names, nRanks, err := readV2TraceHeader(br, opts.Limits)
	if err != nil {
		return nil, err
	}
	headerEnd := uint64(cr.n) - uint64(br.Buffered())
	entries, err := ReadBlockIndexLimit(sr, sr.Size(), traceMagicV2, headerEnd, opts.Limits.MaxRanks)
	if err != nil {
		return nil, err
	}
	if len(entries) != nRanks {
		return nil, fmt.Errorf("trace: %d blocks indexed for %d ranks", len(entries), nRanks)
	}
	if workers > len(entries) && len(entries) > 0 {
		workers = len(entries)
	}
	d := &v2parallelDecoder{
		sr:      sr,
		names:   names,
		entries: entries,
		workers: workers,
		ctx:     opts.Ctx,
		sem:     make(chan struct{}, max(workers, 1)),
		abort:   make(chan struct{}),
		results: make([]chan v2blockResult, len(entries)),
		free:    newEventFreeList(workers),
	}
	for i := range d.results {
		d.results[i] = make(chan v2blockResult, 1)
	}
	d.claim.Store(-1)
	return &Decoder{
		name:    name,
		names:   names,
		nRanks:  nRanks,
		version: 2,
		next:    d.nextRank,
		close:   d.closeAbort,
		free:    d.free,
	}, nil
}

// run is one worker: wait for an in-flight slot, claim the next block,
// decode, deliver. The abort channel releases workers when the consumer
// hits an error or closes the decoder early.
//
// The slot MUST be acquired before the index is claimed: the consumer
// drains results in strict index order and releases a slot only after
// consuming, so the worker holding the lowest pending index has to own
// a slot or the pipeline wedges (claim-first lets later claimants fill
// every slot while the lowest claimant waits on the semaphore forever).
func (d *v2parallelDecoder) run() {
	for {
		select {
		case d.sem <- struct{}{}:
		case <-d.abort:
			return
		case <-d.ctx.Done():
			return
		}
		i := int(d.claim.Add(1))
		if i >= len(d.entries) {
			<-d.sem
			return
		}
		rt, err := d.decodeBlock(d.entries[i])
		d.results[i] <- v2blockResult{rt, err}
	}
}

func (d *v2parallelDecoder) decodeBlock(e BlockEntry) (*RankTrace, error) {
	var buf []byte
	if bp, _ := d.bufs.Get().(*[]byte); bp != nil {
		buf = *bp
	}
	payload, buf, err := ReadBlockAtBuf(d.sr, e, buf)
	if err != nil {
		d.bufs.Put(&buf)
		return nil, err
	}
	c := NewCursor(payload)
	var dst []Event
	if e.Records > 0 {
		dst = d.free.get()
	}
	events, err := ParseEventsV2Into(c, d.names, e.Records, dst)
	if err == nil {
		err = c.Done()
	}
	// ParseEventsV2 copies nothing out of the payload (names come from
	// the table), so the buffer can go back in the pool right away.
	d.bufs.Put(&buf)
	if err != nil {
		return nil, fmt.Errorf("trace: rank %d block: %w", e.Rank, err)
	}
	return &RankTrace{Rank: int(e.Rank), Events: events}, nil
}

func (d *v2parallelDecoder) nextRank() (*RankTrace, error) {
	if d.next >= len(d.entries) {
		return nil, io.EOF
	}
	// Once a decode has failed (or Close aborted the workers), the
	// pending result channels will never be filled — return the latched
	// error instead of blocking on them forever.
	if d.fail != nil {
		return nil, d.fail
	}
	d.start.Do(func() {
		for w := 0; w < d.workers; w++ {
			go d.run()
		}
	})
	// A cancelled context stops the workers, so the pending result may
	// never arrive — wait on both and latch the cancellation as the
	// decoder's terminal error.
	var res v2blockResult
	select {
	case res = <-d.results[d.next]:
	case <-d.ctx.Done():
		d.fail = d.ctx.Err()
		d.closeAbort()
		return nil, d.fail
	}
	d.next++
	<-d.sem
	if res.err != nil {
		d.fail = res.err
		d.closeAbort()
		return nil, res.err
	}
	return res.rt, nil
}

func (d *v2parallelDecoder) closeAbort() {
	d.stop.Do(func() {
		if d.fail == nil {
			d.fail = errors.New("trace: decoder closed")
		}
		close(d.abort)
	})
}

// v2sequentialDecoder decodes TRC2 from a plain stream: blocks in file
// order via the inline headers, then the footer is read and verified
// against the observed blocks, so a stream decode is exactly as strict
// as the random-access path.
type v2sequentialDecoder struct {
	cr       *countingReader
	br       *bufio.Reader
	names    []string
	nRanks   int
	next     int
	observed []BlockEntry
	checked  bool
	ctx      context.Context
	free     *eventFreeList
	buf      []byte // payload storage reused across blocks
}

// newV2SequentialDecoder builds the sequential decoder; br wraps cr and
// has consumed exactly the 4-byte magic.
func newV2SequentialDecoder(cr *countingReader, br *bufio.Reader, opts DecoderOptions) (*Decoder, error) {
	name, names, nRanks, err := readV2TraceHeader(br, opts.Limits)
	if err != nil {
		return nil, err
	}
	free := newEventFreeList(opts.Workers)
	d := &v2sequentialDecoder{cr: cr, br: br, names: names, nRanks: nRanks, ctx: opts.Ctx, free: free}
	return &Decoder{
		name:    name,
		names:   names,
		nRanks:  nRanks,
		version: 2,
		next:    d.nextRank,
		close:   func() {},
		free:    free,
	}, nil
}

// pos returns the stream position (bytes consumed from the container).
func (d *v2sequentialDecoder) pos() uint64 {
	return uint64(d.cr.n) - uint64(d.br.Buffered())
}

func (d *v2sequentialDecoder) nextRank() (*RankTrace, error) {
	if err := d.ctx.Err(); err != nil {
		return nil, err
	}
	if d.next >= d.nRanks {
		if !d.checked {
			d.checked = true
			if err := CheckBlockFooter(d.br, traceMagicV2, d.observed, d.pos()); err != nil {
				return nil, err
			}
		}
		return nil, io.EOF
	}
	e, payload, err := ReadBlock(d.br, d.pos(), d.buf)
	if err != nil {
		return nil, fmt.Errorf("trace: rank %d of %d block: %w", d.next, d.nRanks, err)
	}
	// Events copy nothing out of the payload (names come from the
	// table), so the next block can be read into the same storage.
	d.buf = payload
	d.next++
	d.observed = append(d.observed, e)
	c := NewCursor(payload)
	var dst []Event
	if e.Records > 0 {
		dst = d.free.get()
	}
	events, err := ParseEventsV2Into(c, d.names, e.Records, dst)
	if err != nil {
		return nil, fmt.Errorf("trace: rank %d block: %w", e.Rank, err)
	}
	if err := c.Done(); err != nil {
		return nil, fmt.Errorf("trace: rank %d block: %w", e.Rank, err)
	}
	return &RankTrace{Rank: int(e.Rank), Events: events}, nil
}

// DefaultDecodeWorkers resolves a worker-count option: non-positive
// means GOMAXPROCS.
func DefaultDecodeWorkers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}
