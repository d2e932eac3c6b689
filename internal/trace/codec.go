package trace

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"sync"
)

// Binary trace file format (TRC1). The byte-level specification lives in
// docs/FORMATS.md; this comment is the summary.
//
// All integers are little-endian. Layout:
//
//	magic   "TRC1" (4 bytes)
//	name    length-prefixed workload name
//	names   u32 count, then length-prefixed strings (the name table)
//	nranks  u32
//	per rank: u32 rank, u32 event count, then fixed-width records
//
// Each event record is 41 bytes: nameID u32, kind u8, enter i64, exit i64,
// peer i32, tag i32, bytes i64, root i32. File-size percentages in the
// evaluation are ratios of these encoded byte counts, so the format is the
// unit of measure as much as it is an interchange format.

const traceMagic = "TRC1"

// EventRecordSize is the fixed encoded size of one event record in bytes.
const EventRecordSize = 4 + 1 + 8 + 8 + 4 + 4 + 8 + 4

// CountingWriter discards writes while tallying the byte count; the size
// metrics encode into one instead of allocating buffers.
type CountingWriter struct{ N int64 }

// Write implements io.Writer.
func (c *CountingWriter) Write(p []byte) (int, error) { c.N += int64(len(p)); return len(p), nil }

// EncodedSize returns the number of bytes Encode would write for t,
// computed from the distinct names and the event counts instead of by
// encoding: magic, workload name, name count, each distinct name once,
// rank count, then 8 header bytes per rank and EventRecordSize per event.
func EncodedSize(t *Trace) int64 {
	size := int64(len(traceMagic)) + 4 + int64(len(t.Name)) + 4 + 4
	seen := map[string]struct{}{}
	var last string
	for i := range t.Ranks {
		events := t.Ranks[i].Events
		size += 8 + int64(len(events))*EventRecordSize
		for j := range events {
			// Only a name that differs from the previous event's needs
			// the map; the first event always does.
			if name := events[j].Name; len(seen) == 0 || name != last {
				last = name
				if _, ok := seen[name]; !ok {
					seen[name] = struct{}{}
					size += 4 + int64(len(name))
				}
			}
		}
	}
	return size
}

// NameTable assigns dense IDs to event name strings during encoding.
type NameTable struct {
	ids   map[string]uint32
	names []string
}

// NewNameTable returns an empty name table.
func NewNameTable() *NameTable { return &NameTable{ids: map[string]uint32{}} }

// ID returns the table ID for name, adding it if absent.
func (nt *NameTable) ID(name string) uint32 {
	if id, ok := nt.ids[name]; ok {
		return id
	}
	id := uint32(len(nt.names))
	nt.ids[name] = id
	nt.names = append(nt.names, name)
	return id
}

// Names returns the table's strings in ID order. The caller must not
// modify the returned slice.
func (nt *NameTable) Names() []string { return nt.names }

// WriteString writes a u32-length-prefixed string.
func WriteString(w io.Writer, s string) error {
	if err := binary.Write(w, binary.LittleEndian, uint32(len(s))); err != nil {
		return err
	}
	_, err := io.WriteString(w, s)
	return err
}

// ReadString reads a u32-length-prefixed string written by WriteString,
// under the default string-length cap.
func ReadString(r io.Reader) (string, error) {
	return ReadStringLimit(r, defaultMaxStringLen)
}

// ReadStringLimit is ReadString with an explicit length cap: a declared
// length above max is rejected before any allocation.
func ReadStringLimit(r io.Reader, max uint32) (string, error) {
	var n uint32
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return "", err
	}
	if n > max {
		return "", fmt.Errorf("trace: string length %d exceeds the %d-byte cap", n, max)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}

// Encode writes t to w in the binary trace format.
func Encode(w io.Writer, t *Trace) error {
	bw := bufio.NewWriter(w)
	if _, err := io.WriteString(bw, traceMagic); err != nil {
		return err
	}
	if err := WriteString(bw, t.Name); err != nil {
		return err
	}
	nt := NewNameTable()
	for i := range t.Ranks {
		for _, e := range t.Ranks[i].Events {
			nt.ID(e.Name)
		}
	}
	if err := binary.Write(bw, binary.LittleEndian, uint32(len(nt.names))); err != nil {
		return err
	}
	for _, name := range nt.names {
		if err := WriteString(bw, name); err != nil {
			return err
		}
	}
	if err := binary.Write(bw, binary.LittleEndian, uint32(len(t.Ranks))); err != nil {
		return err
	}
	var rec [EventRecordSize]byte
	for i := range t.Ranks {
		rt := &t.Ranks[i]
		if err := binary.Write(bw, binary.LittleEndian, uint32(rt.Rank)); err != nil {
			return err
		}
		if err := binary.Write(bw, binary.LittleEndian, uint32(len(rt.Events))); err != nil {
			return err
		}
		for _, e := range rt.Events {
			PutEventRecord(rec[:], nt.ID(e.Name), e)
			if _, err := bw.Write(rec[:]); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// PutEventRecord encodes e into rec, which must be at least
// EventRecordSize bytes; nameID is the event name's table ID.
func PutEventRecord(rec []byte, nameID uint32, e Event) {
	le := binary.LittleEndian
	le.PutUint32(rec[0:], nameID)
	rec[4] = byte(e.Kind)
	le.PutUint64(rec[5:], uint64(e.Enter))
	le.PutUint64(rec[13:], uint64(e.Exit))
	le.PutUint32(rec[21:], uint32(e.Peer))
	le.PutUint32(rec[25:], uint32(e.Tag))
	le.PutUint64(rec[29:], uint64(e.Bytes))
	le.PutUint32(rec[37:], uint32(e.Root))
}

// GetEventRecord decodes one fixed-width event record, resolving the name
// ID against names.
func GetEventRecord(rec []byte, names []string) (Event, error) {
	le := binary.LittleEndian
	nameID := le.Uint32(rec[0:])
	if int(nameID) >= len(names) {
		return Event{}, fmt.Errorf("trace: name id %d out of range (%d names)", nameID, len(names))
	}
	kind := EventKind(rec[4])
	if kind >= numKinds {
		return Event{}, fmt.Errorf("trace: unknown event kind %d", rec[4])
	}
	return Event{
		Name:  names[nameID],
		Kind:  kind,
		Enter: int64(le.Uint64(rec[5:])),
		Exit:  int64(le.Uint64(rec[13:])),
		Peer:  int32(le.Uint32(rec[21:])),
		Tag:   int32(le.Uint32(rec[25:])),
		Bytes: int64(le.Uint64(rec[29:])),
		Root:  int32(le.Uint32(rec[37:])),
	}, nil
}

// noEOF converts io.EOF into io.ErrUnexpectedEOF for reads that must
// succeed because earlier header fields promised more data.
func noEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// Decoder reads a binary trace file one rank at a time, so a consumer
// that processes ranks independently (the streaming reduction pipeline)
// never holds more than one rank's events in memory. NewDecoder sniffs
// the magic and reads the header of either container version; each
// NextRank call yields the next rank's stream.
//
// For version-2 (TRC2) files on a random-access input (io.ReaderAt +
// io.Seeker, e.g. *os.File or bytes.Reader), blocks are decoded in
// parallel on a worker pool and delivered in file order; on a plain
// stream, blocks are decoded sequentially with the same validation.
// Version-1 files always decode sequentially, unchanged.
type Decoder struct {
	name    string
	names   []string
	nRanks  int
	version int
	next    func() (*RankTrace, error)
	close   func()
	free    *eventFreeList
}

// eventFreeList recycles rank event buffers between a decoder and its
// consumer: the consumer hands finished ranks back through
// Decoder.Recycle, and the decoder's rank readers draw storage from the
// list before allocating. The bound caps how many idle buffers the list
// retains (O(workers) in-flight ranks plus a little slack), so the
// recycling loop also acts as back-pressure on event storage: a session
// that keeps up reuses the same few buffers forever.
type eventFreeList struct {
	mu   sync.Mutex
	max  int
	bufs [][]Event
}

func (f *eventFreeList) get() []Event {
	f.mu.Lock()
	defer f.mu.Unlock()
	if n := len(f.bufs); n > 0 {
		b := f.bufs[n-1]
		f.bufs[n-1] = nil
		f.bufs = f.bufs[:n-1]
		return b
	}
	return nil
}

func (f *eventFreeList) put(buf []Event) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.bufs) < f.max {
		f.bufs = append(f.bufs, buf)
	}
}

// newEventFreeList sizes a free list for a pool of workers consuming
// ranks concurrently.
func newEventFreeList(workers int) *eventFreeList {
	return &eventFreeList{max: workers + 2}
}

// Recycle hands rt's event storage back to the decoder for reuse by a
// later NextRank, clearing rt.Events. Callers that are done with a
// rank's events — the reduction pipeline recycles each rank as soon as
// its segments are split off — should call it instead of dropping the
// slice, keeping per-session event storage bounded and reused. Safe to
// call with nil or an already-recycled rank; safe from concurrent
// consumers. The events themselves only reference name-table strings,
// never decoder-owned byte buffers, so reuse cannot corrupt ranks still
// in flight.
func (d *Decoder) Recycle(rt *RankTrace) {
	if rt == nil || cap(rt.Events) == 0 {
		return
	}
	buf := rt.Events[:0]
	rt.Events = nil
	d.free.put(buf)
}

// DecoderOptions configure decoding. The zero value is the default.
type DecoderOptions struct {
	// Workers bounds the version-2 block-decode pool; non-positive means
	// GOMAXPROCS. Version-1 decoding ignores it.
	Workers int
	// Ctx cancels the decode: pool workers stop claiming blocks and a
	// blocked NextRank returns ctx.Err(). nil means context.Background().
	Ctx context.Context
	// Limits override the hostile-input allocation caps; zero fields keep
	// the defaults (see DecodeLimits).
	Limits DecodeLimits
}

// DecodeLimits bound what a decoder will accept from a container header
// before the body proves the bytes exist. The zero value keeps the
// historical caps, which are sized for trusted local files; servers
// decoding uploads lower them to enforce per-tenant budgets, rejecting
// an oversized header cleanly before any large allocation.
type DecodeLimits struct {
	// MaxStringLen caps each length-prefixed string (workload name, name
	// table entries). 0 means 1<<20.
	MaxStringLen uint32
	// MaxNames caps the name-table entry count. 0 means 1<<24.
	MaxNames uint32
	// MaxRanks caps the rank count (and so the v2 block count). 0 means
	// 1<<20.
	MaxRanks uint32
}

// Historical caps, applied when the corresponding DecodeLimits field is
// zero.
const (
	defaultMaxStringLen = 1 << 20
	defaultMaxNames     = 1 << 24
	defaultMaxRanks     = 1 << 20
)

// withDefaults fills zero fields with the historical caps.
func (l DecodeLimits) withDefaults() DecodeLimits {
	if l.MaxStringLen == 0 {
		l.MaxStringLen = defaultMaxStringLen
	}
	if l.MaxNames == 0 {
		l.MaxNames = defaultMaxNames
	}
	if l.MaxRanks == 0 {
		l.MaxRanks = defaultMaxRanks
	}
	return l
}

// Resolve returns the options with defaults applied: limits filled in
// and a non-nil context. Decoder entry points in other packages (the
// reduced-trace codec) call it once up front.
func (o DecoderOptions) Resolve() DecoderOptions {
	o.Workers = DefaultDecodeWorkers(o.Workers)
	if o.Ctx == nil {
		o.Ctx = context.Background()
	}
	o.Limits = o.Limits.withDefaults()
	return o
}

// NewDecoder reads the trace header (magic, workload name, name table,
// rank count) from r and returns a Decoder positioned at the first rank.
// Both container versions are accepted; the magic selects the codec.
func NewDecoder(r io.Reader) (*Decoder, error) {
	return NewDecoderWith(r, DecoderOptions{})
}

// NewDecoderWith is NewDecoder with explicit options.
func NewDecoderWith(r io.Reader, opts DecoderOptions) (*Decoder, error) {
	opts = opts.Resolve()
	c, err := OpenContainer(r, traceMagicV2)
	if err != nil {
		return nil, err
	}
	if c.Magic != traceMagic && c.Magic != traceMagicV2 {
		return nil, fmt.Errorf("trace: bad magic %q", c.Magic)
	}
	hdr, names, nRanks, err := ReadHeader(c.Header, opts.Limits, 1)
	if err != nil {
		return nil, err
	}
	d := &Decoder{name: hdr[0], names: names, nRanks: nRanks, free: newEventFreeList(opts.Workers)}
	if c.Magic == traceMagicV2 {
		if err := newV2Decoder(c, d, opts); err != nil {
			return nil, err
		}
		return d, nil
	}
	v1 := &v1decoder{br: c.Header, names: names, nRanks: nRanks, ctx: opts.Ctx, free: d.free}
	d.version, d.next, d.close = 1, v1.nextRank, func() {}
	return d, nil
}

// ReadHeader reads the header fields every container version shares
// after the magic — nStrings length-prefixed strings (the workload name,
// then for the reduced containers the method), the name table, and the
// rank count — under the given allocation caps.
func ReadHeader(br *bufio.Reader, lim DecodeLimits, nStrings int) (strs, names []string, nRanks int, err error) {
	strs = make([]string, nStrings)
	for i := range strs {
		if strs[i], err = ReadStringLimit(br, lim.MaxStringLen); err != nil {
			return nil, nil, 0, fmt.Errorf("trace: reading header: %w", err)
		}
	}
	var nNames uint32
	if err = binary.Read(br, binary.LittleEndian, &nNames); err != nil {
		return nil, nil, 0, err
	}
	if nNames > lim.MaxNames {
		return nil, nil, 0, fmt.Errorf("trace: name table size %d exceeds the %d-entry cap", nNames, lim.MaxNames)
	}
	names = make([]string, 0, min(nNames, 1<<12))
	for i := uint32(0); i < nNames; i++ {
		s, err := ReadStringLimit(br, lim.MaxStringLen)
		if err != nil {
			return nil, nil, 0, fmt.Errorf("trace: reading name table: %w", err)
		}
		names = append(names, s)
	}
	var n uint32
	if err = binary.Read(br, binary.LittleEndian, &n); err != nil {
		return nil, nil, 0, err
	}
	if n > lim.MaxRanks {
		return nil, nil, 0, fmt.Errorf("trace: rank count %d exceeds the %d cap", n, lim.MaxRanks)
	}
	return strs, names, int(n), nil
}

// Name returns the workload name from the trace header.
func (d *Decoder) Name() string { return d.name }

// NumRanks returns the number of ranks the file declares.
func (d *Decoder) NumRanks() int { return d.nRanks }

// Version returns the container version being decoded (1 or 2).
func (d *Decoder) Version() int { return d.version }

// NextRank decodes the next rank's event stream. It returns io.EOF after
// the last rank.
func (d *Decoder) NextRank() (*RankTrace, error) { return d.next() }

// Close releases decode workers. It is only needed when a version-2
// parallel decode is abandoned before NextRank returned io.EOF or an
// error; it is safe (and a no-op) in every other case.
func (d *Decoder) Close() { d.close() }

// v1decoder is the sequential TRC1 rank reader.
type v1decoder struct {
	br     *bufio.Reader
	names  []string
	nRanks int
	next   int
	ctx    context.Context
	free   *eventFreeList
	rec    []byte
}

func (d *v1decoder) nextRank() (*RankTrace, error) {
	if err := d.ctx.Err(); err != nil {
		return nil, err
	}
	if d.next >= d.nRanks {
		return nil, io.EOF
	}
	d.next++
	// The header declared d.nRanks ranks, so running out of bytes here is
	// a truncated file, not a clean end of stream: never surface bare
	// io.EOF, which consumers take to mean "all declared ranks read".
	var rank, nEvents uint32
	if err := binary.Read(d.br, binary.LittleEndian, &rank); err != nil {
		return nil, fmt.Errorf("trace: rank %d of %d header: %w", d.next-1, d.nRanks, noEOF(err))
	}
	if err := binary.Read(d.br, binary.LittleEndian, &nEvents); err != nil {
		return nil, fmt.Errorf("trace: rank %d of %d header: %w", d.next-1, d.nRanks, noEOF(err))
	}
	rt := &RankTrace{Rank: int(rank)}
	if nEvents > 0 {
		// Prefer a recycled buffer from the free list (a consumer that
		// calls Decoder.Recycle keeps a few buffers circulating); otherwise
		// cap the upfront allocation: a hostile or corrupt header can
		// declare billions of events, but each one still costs
		// EventRecordSize bytes of input, so growth-by-append bounds
		// memory by the actual stream size.
		if buf := d.free.get(); buf != nil {
			rt.Events = buf
		} else {
			rt.Events = make([]Event, 0, min(nEvents, 1<<16))
		}
	}
	if d.rec == nil {
		d.rec = make([]byte, EventRecordSize)
	}
	rec := d.rec
	for j := uint32(0); j < nEvents; j++ {
		if _, err := io.ReadFull(d.br, rec); err != nil {
			return nil, fmt.Errorf("trace: rank %d event %d: %w", rank, j, err)
		}
		e, err := GetEventRecord(rec, d.names)
		if err != nil {
			return nil, err
		}
		rt.Events = append(rt.Events, e)
	}
	return rt, nil
}

// Decode reads a trace in the binary format from r (either container
// version; the magic selects the codec). It is the batch form of
// Decoder: every rank is materialized into one Trace.
func Decode(r io.Reader) (*Trace, error) {
	d, err := NewDecoder(r)
	if err != nil {
		return nil, err
	}
	defer d.Close()
	// The declared rank count only caps the initial capacity: a hostile
	// header can promise a million ranks in a few bytes.
	t := &Trace{Name: d.Name(), Ranks: make([]RankTrace, 0, min(d.NumRanks(), 1<<12))}
	for {
		rt, err := d.NextRank()
		if err == io.EOF {
			return t, nil
		}
		if err != nil {
			return nil, err
		}
		t.Ranks = append(t.Ranks, *rt)
	}
}
