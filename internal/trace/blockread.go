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
	"sync"
	"sync/atomic"

	"repro/internal/bufpool"
)

// The read side of the v2 block containers, shared by TRC2 and the TRR2
// reduced container (internal/core): OpenContainer sniffs the magic and
// chooses the access path, the caller reads its own header from
// Container.Header, and a BlockReader then yields the verified blocks,
// each parsed by a caller-supplied payload parser: in file order, or on a
// random-access container by index. This file is the only place that
// knows how v2 blocks are fetched and checked.

// Container is a trace or reduced-trace container opened for reading:
// its leading magic has been consumed and Header is positioned at the
// header that follows.
type Container struct {
	// Magic is the container's leading 4-byte magic.
	Magic string
	// Header reads the container header, then (for v1 containers and
	// for v2 on a plain stream) the body.
	Header *bufio.Reader
	cr     *countingReader
	// sr spans the whole container when the input is random-access and
	// holds the v2 magic OpenContainer was given; nil otherwise.
	sr *io.SectionReader
}

// OpenContainer reads the magic from r. When r is random-access
// (io.ReaderAt + io.Seeker) and the container carries v2magic, later
// block reads go through r's ReaderAt, by index; anything else (every
// v1 container, and v2 on a plain stream) is read sequentially through
// Container.Header.
func OpenContainer(r io.Reader, v2magic string) (*Container, error) {
	sr, ok, err := sectionFor(r)
	if err != nil {
		return nil, err
	}
	c := &Container{}
	// Anything else, including a random-access input too short to tell,
	// is read as a stream: sectionFor restored r's position, so the
	// stream sees the file from the start.
	if ok && peekMagic(sr) == v2magic {
		c.sr = sr
		r = io.NewSectionReader(sr, 0, sr.Size())
	}
	c.cr = &countingReader{r: r}
	c.Header = bufio.NewReader(c.cr)
	var magic [4]byte
	if _, err := io.ReadFull(c.Header, magic[:]); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	c.Magic = string(magic[:])
	return c, nil
}

// pos returns the container offset Header has consumed up to.
func (c *Container) pos() uint64 { return uint64(c.cr.n) - uint64(c.Header.Buffered()) }

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

// BlockReader yields the blocks of a v2 container, each verified against
// its inline header, its checksum, and the footer index, and handed to
// the caller's payload parser.
//
// On a random-access container it validates the footer index up front.
// At then reads and parses any block by index on the caller's goroutine,
// so callers that decode many blocks at once (ReadAll, the reduction
// pipeline) do it on their own workers, and Next reads the next block
// through At. On a plain stream Next reads blocks through their inline
// headers into one reused payload buffer and checks the footer against
// them after the last block, so both paths are equally strict. Apart
// from ReadAll, which joins its workers before it returns, no call
// starts a goroutine.
//
// Next's first error is latched: every later Next returns it. A corrupt
// block reads the same from every path; only the errors a plain stream
// alone can meet, such as truncation, name the block's index.
type BlockReader[T any] struct {
	c      *Container
	n      int
	ctx    context.Context
	parse  func(BlockEntry, []byte) (T, error)
	next   int
	fail   error
	closed atomic.Bool

	// Plain stream: the reused payload buffer and the blocks read so
	// far, checked against the footer at the end.
	buf      []byte
	observed []BlockEntry

	// Random access: the validated index.
	entries []BlockEntry
}

// errBlockReaderClosed is the terminal error of a closed reader.
var errBlockReaderClosed = errors.New("trace: decoder closed")

// blockReads holds the random-access block read buffers of every reader.
// Parsers copy what they keep out of the payload (names come from the
// header's table), so a buffer is free once its block has been parsed.
var blockReads bufpool.Pool[byte]

// NewBlockReader returns a reader over the n blocks of c, a v2
// container whose header the caller has read from c.Header. parse turns
// one verified payload into a T; the payload is only valid during the
// call. On a random-access container parse runs concurrently: on the
// GOMAXPROCS goroutines of ReadAll, and on every caller of At. The
// footer index is checked here against n.
func NewBlockReader[T any](c *Container, n int, opts DecoderOptions, parse func(BlockEntry, []byte) (T, error)) (*BlockReader[T], error) {
	opts = opts.Resolve()
	b := &BlockReader[T]{c: c, n: n, ctx: opts.Ctx, parse: parse}
	if c.sr == nil {
		return b, nil
	}
	entries, err := readBlockIndex(c.sr, c.sr.Size(), c.Magic, c.pos(), opts.Limits.MaxRanks)
	if err != nil {
		return nil, err
	}
	if len(entries) != n {
		return nil, fmt.Errorf("trace: %s: %d blocks indexed for %d ranks", c.Magic, len(entries), n)
	}
	b.entries = entries
	return b, nil
}

// Next returns the next block's parsed payload, or io.EOF after the last
// block (on a plain stream, once the footer has been verified).
func (b *BlockReader[T]) Next() (T, error) {
	var zero T
	if b.fail != nil {
		return zero, b.fail
	}
	if err := b.ctx.Err(); err != nil {
		return zero, b.latch(err)
	}
	if b.c.sr == nil {
		return b.nextStream()
	}
	if b.next == len(b.entries) {
		return zero, b.latch(io.EOF)
	}
	v, err := b.At(b.next)
	b.next++
	if err != nil {
		return zero, b.latch(err)
	}
	return v, nil
}

// nextStream reads the next block through its inline header.
func (b *BlockReader[T]) nextStream() (T, error) {
	var zero T
	if b.next == b.n {
		if err := checkBlockFooter(b.c.Header, b.c.Magic, b.observed, b.c.pos()); err != nil {
			return zero, b.latch(err)
		}
		return zero, b.latch(io.EOF)
	}
	e, payload, err := readBlock(b.c.Header, b.c.pos(), b.buf)
	if err != nil {
		return zero, b.latch(fmt.Errorf("trace: rank %d of %d block: %w", b.next, b.n, err))
	}
	b.buf = payload
	b.next++
	b.observed = append(b.observed, e)
	if err := checkPayload(e, payload); err != nil {
		return zero, b.latch(err)
	}
	v, err := b.parse(e, payload)
	if err != nil {
		return zero, b.latch(err)
	}
	return v, nil
}

// latch records err as the reader's terminal state.
func (b *BlockReader[T]) latch(err error) error {
	b.fail = err
	return err
}

// Close makes every later Next and At fail. A reader holds no goroutine
// and no pooled buffer between calls, so Close frees nothing and is
// never required.
func (b *BlockReader[T]) Close() {
	if b.fail == nil {
		b.fail = errBlockReaderClosed
	}
	b.closed.Store(true)
}

// RandomAccess reports whether the container is read through its
// io.ReaderAt, so that At and ReadAll may be called.
func (b *BlockReader[T]) RandomAccess() bool { return b.c.sr != nil }

// At reads block i of a random-access container, verifies it against its
// index entry and its checksum, and parses it, all on the caller's
// goroutine. It is safe for concurrent use and independent of Next: it
// claims and latches nothing. Once the reader's context is done it
// returns ctx.Err(), and once the reader is closed an error.
func (b *BlockReader[T]) At(i int) (T, error) {
	var v T
	if b.closed.Load() {
		return v, errBlockReaderClosed
	}
	if err := b.ctx.Err(); err != nil {
		return v, err
	}
	e := b.entries[i]
	// The index check bounded the block by the container's size.
	buf := blockReads.Get(blockHeaderSize + int(e.Length))
	payload, buf, err := readBlockAt(b.c.sr, e, buf)
	if err == nil {
		v, err = b.parse(e, payload)
	}
	blockReads.Put(buf)
	return v, err
}

// ReadAll decodes every block of a random-access container and hands
// block i's value to put(i, v), fanned out by index over GOMAXPROCS
// goroutines, the caller's among them: put runs concurrently for
// distinct i. It returns the error of the lowest failing block, the one
// Next would have reported first, or else ctx.Err() when the context
// was done before ReadAll returns, as a read through Next would; no
// goroutine outlives the call.
func (b *BlockReader[T]) ReadAll(put func(i int, v T)) error {
	if err := b.ctx.Err(); err != nil {
		return err
	}
	err := fanOut(runtime.GOMAXPROCS(0), len(b.entries), func(i int) error {
		v, err := b.At(i)
		if err == nil {
			put(i, v)
		}
		return err
	})
	if err == nil {
		err = b.ctx.Err()
	}
	return err
}

// fanOut runs fn(0), ..., fn(n-1) on up to workers goroutines, the
// caller's among them, each claiming the next index in order. A failure
// stops further claims, but every claimed index runs to its end; since
// indices are claimed in order, every index below a failing one has run,
// and the error of the lowest failing index is returned.
func fanOut(workers, n int, fn func(i int) error) error {
	var (
		next     atomic.Int64
		stop     atomic.Bool
		mu       sync.Mutex
		errAt    = n
		firstErr error
	)
	work := func() {
		for !stop.Load() {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			if err := fn(i); err != nil {
				stop.Store(true)
				mu.Lock()
				if i < errAt {
					errAt, firstErr = i, err
				}
				mu.Unlock()
				return
			}
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < min(workers, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	return firstErr
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
