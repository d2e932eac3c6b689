package trace

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync/atomic"

	"repro/internal/bufpool"
	"repro/internal/fanout"
)

// The read side of every container, the trace containers TRC1/TRC2 and
// the reduced containers TRR1/TRR2 (internal/core) alike: Open sniffs the
// magic, reads the header and chooses the access path, and the Container
// it returns then yields the rank sections, each read or parsed by the
// family's own section grammar: in file order, or on a random-access
// version-2 container by index. This file is the only place that knows
// how a container is opened and how v2 blocks are fetched and checked.

// Container is a container opened for reading by Open: its header has
// been read, and its rank sections are read through Next, All, or the
// reader RankAt returns.
//
// A version-1 container, and a version-2 one on a plain stream, is read
// in order. On a random-access version-2 container the footer index is
// validated up front, and any block can then be read by index on the
// caller's goroutine, so callers that decode many blocks at once (All,
// the reduction pipeline) do it on their own workers; Next reads the
// next block the same way. A plain-stream read checks the footer against
// the blocks it read after the last one, so both paths are equally
// strict. Apart from All, which joins its workers before it returns, no
// call starts a goroutine.
//
// Next's first error is latched: every later Next returns it. A corrupt
// block reads the same from every path; only the errors a plain stream
// alone can meet, such as truncation, name the block's index.
type Container[T any] struct {
	// Header holds the header strings that follow the magic: the
	// workload name, then for a reduced container the method.
	Header []string
	// Names is the name table.
	Names []string
	// Ranks is the rank count the header declares.
	Ranks int
	// Version is the container version, 1 or 2.
	Version int

	magic   string
	readV1  func(*bufio.Reader, []string) (T, error)
	parseV2 func(BlockEntry, []byte, []string) (T, error)
	ctx     context.Context
	br      *bufio.Reader
	cr      *countingReader
	next    int
	fail    error
	closed  atomic.Bool

	// Plain-stream version 2: the reused payload buffer and the blocks
	// read so far, checked against the footer at the end.
	buf      []byte
	observed []BlockEntry

	// Random-access version 2: the container and its validated index.
	sr      *io.SectionReader
	entries []BlockEntry
}

// Open reads the magic and the header of a container of family fam from
// r, and returns the container positioned at its first rank section; the
// magic selects the version. readV1 reads one version-1 section from the
// buffered input. parseV2 turns one version-2 block payload, verified
// against its header and checksum, into a T; the payload is only valid
// during the call. Both get the name table. On a random-access input
// (io.ReaderAt + io.Seeker) parseV2 runs concurrently: on the GOMAXPROCS
// goroutines of All, and on every caller of the reader RankAt returns.
func Open[T any](r io.Reader, fam Family, opts DecoderOptions,
	readV1 func(*bufio.Reader, []string) (T, error),
	parseV2 func(BlockEntry, []byte, []string) (T, error)) (*Container[T], error) {
	opts = opts.resolve()
	sr, ok, err := sectionFor(r)
	if err != nil {
		return nil, err
	}
	c := &Container[T]{readV1: readV1, parseV2: parseV2, ctx: opts.Ctx}
	// Anything else, including a random-access input too short to tell,
	// is read as a stream: sectionFor restored r's position, so the
	// stream sees the container from the start.
	if ok && peekMagic(sr) == fam.V2 {
		c.sr = sr
		r = io.NewSectionReader(sr, 0, sr.Size())
	}
	c.cr = &countingReader{r: r}
	c.br = bufio.NewReader(c.cr)
	var magic [magicSize]byte
	if _, err := io.ReadFull(c.br, magic[:]); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	c.magic = string(magic[:])
	switch c.magic {
	case fam.V1:
		c.Version = 1
	case fam.V2:
		c.Version = 2
	default:
		return nil, fmt.Errorf("trace: bad magic %q", c.magic)
	}
	if c.Header, c.Names, c.Ranks, err = readHeader(c.br, opts.Limits, fam.Strings); err != nil {
		return nil, err
	}
	if c.sr == nil {
		return c, nil
	}
	if c.entries, err = readBlockIndex(c.sr, c.sr.Size(), c.magic, c.pos(), opts.Limits.MaxRanks); err != nil {
		return nil, err
	}
	if len(c.entries) != c.Ranks {
		return nil, fmt.Errorf("trace: %s: %d blocks indexed for %d ranks", c.magic, len(c.entries), c.Ranks)
	}
	return c, nil
}

// pos returns the container offset the buffered reader has consumed up
// to.
func (c *Container[T]) pos() uint64 { return uint64(c.cr.n) - uint64(c.br.Buffered()) }

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

// sectionFor returns a section reader spanning r's remaining bytes when
// r supports random access (io.ReaderAt + io.Seeker), restoring r's seek
// position.
//
// ok=false with a nil error means r is a plain stream: its position is
// unchanged and the caller may fall back to sequential decode. A
// non-nil error means the probe moved r's position and could not
// restore it — the reader is no longer usable and the caller must
// propagate the error rather than read on from an arbitrary offset.
func sectionFor(r io.Reader) (*io.SectionReader, bool, error) {
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

// peekMagic returns the 4-byte magic at the start of sr without
// consuming it, or "" when sr is shorter than that.
func peekMagic(sr *io.SectionReader) string {
	var magic [4]byte
	if _, err := sr.ReadAt(magic[:], 0); err != nil {
		return ""
	}
	return string(magic[:])
}

// errClosed is the terminal error of a closed container.
var errClosed = errors.New("trace: decoder closed")

// blockReads holds the random-access block read buffers of every reader.
// Parsers copy what they keep out of the payload (names come from the
// header's table), so a buffer is free once its block has been parsed.
var blockReads bufpool.Pool[byte]

// Next returns the next rank section, or io.EOF after the last one (on a
// plain version-2 stream, once the footer has been verified). Once the
// context is done it returns ctx.Err(). The header promised every
// section, so a version-1 section cut short is io.ErrUnexpectedEOF, not
// a clean end. A container ends at its last rank section (version 1) or
// its footer (version 2): a byte after that is an error, not io.EOF. A
// random-access version-2 read finds the footer at the input's end, so
// its footer check already rejects such bytes.
func (c *Container[T]) Next() (T, error) {
	var zero T
	if c.fail != nil {
		return zero, c.fail
	}
	if err := c.ctx.Err(); err != nil {
		return zero, c.latch(err)
	}
	i := c.next
	if i == c.Ranks {
		if c.sr == nil {
			if err := c.checkEnd(); err != nil {
				return zero, c.latch(err)
			}
		}
		return zero, c.latch(io.EOF)
	}
	c.next++
	var v T
	var err error
	switch {
	case c.Version == 1:
		if v, err = c.readV1(c.br, c.Names); err != nil {
			err = fmt.Errorf("%s rank %d of %d: %w", c.magic, i, c.Ranks, noEOF(err))
		}
	case c.sr != nil:
		v, err = c.at(i)
	default:
		v, err = c.nextBlock(i)
	}
	if err != nil {
		return zero, c.latch(err)
	}
	return v, nil
}

// checkEnd verifies that an input read in order ends with the
// container: after its footer, checked against the blocks read, on
// version 2, and after its last rank section on version 1.
func (c *Container[T]) checkEnd() error {
	if c.Version == 2 {
		if err := checkBlockFooter(c.br, c.magic, c.observed, c.pos()); err != nil {
			return err
		}
	}
	switch _, err := c.br.ReadByte(); err {
	case io.EOF:
		return nil
	case nil:
		return fmt.Errorf("trace: %s: bytes after the container's end", c.magic)
	default:
		return fmt.Errorf("trace: %s: reading past the container's end: %w", c.magic, err)
	}
}

// nextBlock reads block i of a plain version-2 stream through its inline
// header.
func (c *Container[T]) nextBlock(i int) (T, error) {
	var zero T
	e, payload, err := readBlock(c.br, c.pos(), c.buf)
	if err != nil {
		return zero, fmt.Errorf("trace: rank %d of %d block: %w", i, c.Ranks, err)
	}
	c.buf = payload
	c.observed = append(c.observed, e)
	if err := checkPayload(e, payload); err != nil {
		return zero, err
	}
	return c.parseV2(e, payload, c.Names)
}

// latch records err as the container's terminal state.
func (c *Container[T]) latch(err error) error {
	c.fail = err
	return err
}

// Close makes every later Next fail, and every read through a reader
// RankAt returned. A container holds no goroutine and no pooled buffer
// between calls, so Close frees nothing and is never required.
func (c *Container[T]) Close() {
	if c.fail == nil {
		c.fail = errClosed
	}
	c.closed.Store(true)
}

// RankAt returns a reader of c's rank sections by index when c is a
// version-2 container on a random-access input that has not been read
// through Next or closed, and nil otherwise. The reader reads, verifies
// and parses the i-th of c.Ranks blocks on the caller's goroutine, and
// is safe for concurrent use: it claims and latches nothing. Once c's
// context is done it returns ctx.Err(), and once c is closed an error.
func (c *Container[T]) RankAt() func(i int) (T, error) {
	if c.sr == nil || c.next > 0 || c.fail != nil {
		return nil
	}
	return c.at
}

// at reads block i of a random-access container, verifies it against its
// index entry and its checksum, and parses it.
func (c *Container[T]) at(i int) (T, error) {
	var v T
	if c.closed.Load() {
		return v, errClosed
	}
	if err := c.ctx.Err(); err != nil {
		return v, err
	}
	e := c.entries[i]
	// The index check bounded the block by the container's size.
	buf := blockReads.Get(blockHeaderSize + int(e.Length))
	payload, buf, err := readBlockAt(c.sr, e, buf)
	if err == nil {
		v, err = c.parseV2(e, payload, c.Names)
	}
	blockReads.Put(buf)
	return v, err
}

// All reads every rank section and returns them in file order. A
// random-access version-2 container is fanned out by index over
// GOMAXPROCS goroutines, the caller's among them; anything else is read
// through Next. It returns the error of the lowest failing section, the
// one Next would have reported first, or else ctx.Err() when the context
// was done before All returns, as a read through Next would; no
// goroutine outlives the call.
func (c *Container[T]) All() ([]T, error) {
	if at := c.RankAt(); at != nil {
		// The block index has been checked against the container's
		// size, so every declared rank is backed by a block.
		vs := make([]T, c.Ranks)
		err := fanout.Run(runtime.GOMAXPROCS(0), c.Ranks, func(i int) (err error) {
			vs[i], err = at(i)
			return err
		})
		if err == nil {
			err = c.ctx.Err()
		}
		if err != nil {
			return nil, err
		}
		return vs, nil
	}
	// The declared rank count only caps the initial capacity: a hostile
	// header can promise a million ranks in a few bytes.
	vs := make([]T, 0, min(c.Ranks, 1<<12))
	for {
		v, err := c.Next()
		if err == io.EOF {
			return vs, nil
		}
		if err != nil {
			return nil, err
		}
		vs = append(vs, v)
	}
}

// readBlockIndex reads a v2 footer from ra (a container of size bytes
// whose header ends at headerEnd) and validates it fully: trailer magic,
// index bounds, a block count within maxCount, and a contiguous,
// non-overlapping block layout exactly spanning headerEnd..indexOffset.
// Every hostile index shape — overlapping, out-of-range, or gapped
// blocks, zero-length blocks claiming records — is rejected here or by
// the per-block checks.
func readBlockIndex(ra io.ReaderAt, size int64, magic string, headerEnd uint64, maxCount uint32) ([]BlockEntry, error) {
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
		e := getBlockEntry(buf[4+i*blockEntrySize:])
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

// getBlockEntry decodes one footer index record.
func getBlockEntry(rec []byte) BlockEntry {
	le := binary.LittleEndian
	return BlockEntry{
		Offset:  le.Uint64(rec[0:]),
		Length:  le.Uint32(rec[8:]),
		Rank:    le.Uint32(rec[12:]),
		Records: le.Uint32(rec[16:]),
		CRC:     le.Uint32(rec[20:]),
	}
}

// getBlockHeader decodes an inline block header for the block at offset.
func getBlockHeader(hdr []byte, offset uint64) BlockEntry {
	le := binary.LittleEndian
	return BlockEntry{
		Offset:  offset,
		Rank:    le.Uint32(hdr[0:]),
		Records: le.Uint32(hdr[4:]),
		Length:  le.Uint32(hdr[8:]),
		CRC:     le.Uint32(hdr[12:]),
	}
}

// readBlockAt reads block e from ra through buf (grown when too small),
// verifying the inline header against the index entry and the payload
// checksum. It returns the payload plus the backing buffer actually
// used; the payload aliases the backing buffer, so the caller may
// recycle the backing only once the payload is fully parsed.
func readBlockAt(ra io.ReaderAt, e BlockEntry, buf []byte) (payload, backing []byte, err error) {
	need := blockHeaderSize + int(e.Length)
	if cap(buf) < need {
		buf = make([]byte, need)
	}
	buf = buf[:need]
	if _, err := ra.ReadAt(buf, int64(e.Offset)); err != nil {
		return nil, buf, fmt.Errorf("trace: reading block for rank %d: %w", e.Rank, noEOF(err))
	}
	if got := getBlockHeader(buf, e.Offset); got != e {
		return nil, buf, fmt.Errorf("trace: block header %+v does not match index entry %+v", got, e)
	}
	payload = buf[blockHeaderSize:]
	return payload, buf, checkPayload(e, payload)
}

// checkPayload verifies a block's payload against the checksum its
// header declares, with one error text for every read path.
func checkPayload(e BlockEntry, payload []byte) error {
	if crc := CRC32C(payload); crc != e.CRC {
		return fmt.Errorf("trace: rank %d block checksum %08x, want %08x", e.Rank, crc, e.CRC)
	}
	return nil
}

// readBlock reads the next inline block from r sequentially. offset is
// the block's file position (for the index entry later checked against
// the footer). The payload is read into buf when its capacity suffices,
// so a caller that passes the previous payload back reuses one buffer
// across blocks; otherwise the payload grows with the bytes actually
// read, so a hostile length cannot force a large upfront allocation.
// Its errors are the stream's alone (truncation, an oversized length);
// the caller checks the payload with checkPayload, as readBlockAt does.
func readBlock(r io.Reader, offset uint64, buf []byte) (BlockEntry, []byte, error) {
	var hdr [blockHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return BlockEntry{}, nil, noEOF(err)
	}
	e := getBlockHeader(hdr[:], offset)
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
	return e, payload, nil
}

// checkBlockFooter reads the footer from r after the last block and
// verifies it matches the blocks actually read: same entries in the same
// order, index at indexOff, correct trailing magic — so a stream read is
// exactly as strict as the random-access path.
func checkBlockFooter(r io.Reader, magic string, observed []BlockEntry, indexOff uint64) error {
	var u32 [4]byte
	if _, err := io.ReadFull(r, u32[:]); err != nil {
		return fmt.Errorf("trace: reading %s block index: %w", magic, noEOF(err))
	}
	le := binary.LittleEndian
	if n := le.Uint32(u32[:]); int(n) != len(observed) {
		return fmt.Errorf("trace: %s block index declares %d blocks, read %d", magic, n, len(observed))
	}
	var rec [blockEntrySize]byte
	for i, want := range observed {
		if _, err := io.ReadFull(r, rec[:]); err != nil {
			return fmt.Errorf("trace: reading %s block index: %w", magic, noEOF(err))
		}
		if got := getBlockEntry(rec[:]); got != want {
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
