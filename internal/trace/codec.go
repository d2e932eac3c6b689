package trace

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/bufpool"
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

// EncodedSize returns the number of bytes Encode would write for t,
// computed from the distinct names and the event counts instead of by
// encoding: magic, workload name, name count, each distinct name once,
// rank count, then 8 header bytes per rank and EventRecordSize per event.
func EncodedSize(t *Trace) int64 {
	size := int64(len(traceMagic)) + 4 + int64(len(t.Name)) + 4 + 4
	seen := map[string]struct{}{}
	// counted is a direct-mapped cache in front of seen: slot
	// nameSlot(s) holds the last name counted or found there, and bit k of
	// filled marks slot k as holding one. A hit still compares the
	// strings, so a collision costs one map lookup and never the count.
	var counted [32]string
	var filled uint32
	for i := range t.Ranks {
		events := t.Ranks[i].Events
		size += 8 + int64(len(events))*EventRecordSize
		for j := range events {
			name := events[j].Name
			k := nameSlot(name)
			if filled&(1<<k) != 0 && counted[k] == name {
				continue
			}
			counted[k] = name
			filled |= 1 << k
			if _, ok := seen[name]; !ok {
				seen[name] = struct{}{}
				size += 4 + int64(len(name))
			}
		}
	}
	return size
}

// nameSlot keys a name into EncodedSize's 32-slot cache by its length,
// first byte and last byte.
func nameSlot(s string) uint {
	k := uint(len(s))
	if len(s) > 0 {
		k += uint(s[0])*3 + uint(s[len(s)-1])*5
	}
	return k % 32
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
	nt, err := writeTraceHeader(bw, traceMagic, t)
	if err != nil {
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

// writeTraceHeader writes the header both trace container versions
// share — magic, workload name, name table, rank count — and returns
// the table. Ids are assigned in first-use order across ranks, so the
// table is complete before any rank is encoded and concurrent encoders
// only read it.
func writeTraceHeader(w io.Writer, magic string, t *Trace) (*NameTable, error) {
	if _, err := io.WriteString(w, magic); err != nil {
		return nil, err
	}
	if err := WriteString(w, t.Name); err != nil {
		return nil, err
	}
	nt := NewNameTable()
	for i := range t.Ranks {
		for _, e := range t.Ranks[i].Events {
			nt.ID(e.Name)
		}
	}
	if err := binary.Write(w, binary.LittleEndian, uint32(len(nt.names))); err != nil {
		return nil, err
	}
	for _, name := range nt.names {
		if err := WriteString(w, name); err != nil {
			return nil, err
		}
	}
	return nt, binary.Write(w, binary.LittleEndian, uint32(len(t.Ranks)))
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
// io.Seeker, e.g. *os.File or bytes.Reader), every rank block can also
// be read by index (RankAt), which is how the reduction pipeline decodes
// each rank on the worker that reduces it; NextRank decodes blocks ahead
// on a worker pool and delivers them in file order. On a plain stream,
// blocks are decoded sequentially with the same validation. Version-1
// files always decode sequentially, unchanged.
type Decoder struct {
	name    string
	names   []string
	nRanks  int
	version int
	next    func() (*RankTrace, error)
	close   func()
	// blocks reads the rank blocks of a version-2 container; nil for
	// version 1.
	blocks *BlockReader[*RankTrace]
}

// eventBufs holds the rank event buffers of every decoder in the
// process. The rank readers draw from it, sized by the rank's declared
// event count once the input has shown that count is plausible, and
// Decoder.Recycle feeds it, so a decode reuses what earlier decodes
// released whichever decoder they ran on.
var eventBufs bufpool.Pool[Event]

// Recycle hands rt's event storage to the process-wide event buffer
// pool, where any later NextRank of any decoder may draw it, and clears
// rt.Events. Callers that are done with a rank's events — the reduction
// pipeline recycles each rank as soon as its segments are split off —
// should call it instead of dropping the slice, so repeated decodes
// reuse storage instead of allocating it; the garbage collector releases
// what stays idle. Recycle only a rank this decoder returned and that
// nothing else references: the storage can be overwritten by a decode
// anywhere in the process. Safe to call with nil or an already-recycled
// rank, and from concurrent consumers. The events themselves only
// reference name-table strings, never decoder-owned byte buffers.
func (d *Decoder) Recycle(rt *RankTrace) {
	if rt == nil {
		return
	}
	eventBufs.Put(rt.Events)
	rt.Events = nil
}

// DecoderOptions configure decoding. The zero value is the default.
type DecoderOptions struct {
	// Workers bounds the goroutines that decode version-2 blocks on a
	// random-access input: NextRank's look-ahead pool, and the fan-out of
	// the batch decoders (Decode, the reduced-trace decoder). A reduction
	// pipeline reads blocks by index on its own workers, bounded by its
	// own option, so this does not bound it. Non-positive means
	// GOMAXPROCS. Version-1 and plain-stream decoding ignore it.
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
	d := &Decoder{name: hdr[0], names: names, nRanks: nRanks}
	if c.Magic == traceMagicV2 {
		if err := newV2Decoder(c, d, opts); err != nil {
			return nil, err
		}
		return d, nil
	}
	v1 := &v1decoder{br: c.Header, names: names, nRanks: nRanks, ctx: opts.Ctx}
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

// RankAt returns a reader of d's ranks by index when d decodes a
// version-2 container from a random-access input and NextRank has not
// been called, and nil otherwise: version 1 and plain streams are read
// only in order, and so is a decoder a caller has begun to read that
// way. The reader decodes the i-th of d.NumRanks() rank blocks on the
// caller's goroutine and is safe for concurrent use; a caller reads
// through it or through NextRank, not both. Each rank it returns goes
// back through d.Recycle like one NextRank returned. It is a function
// rather than a method so that the public Decoder type gains no method.
func RankAt(d *Decoder) func(i int) (*RankTrace, error) {
	b := d.blocks
	if b == nil || !b.RandomAccess() || b.next > 0 || b.fail != nil {
		return nil
	}
	return b.At
}

// Close releases decode workers. It is only needed when a version-2
// parallel decode is abandoned before NextRank returned io.EOF or an
// error; it is safe (and a no-op) in every other case. A reader RankAt
// returned fails once d is closed.
func (d *Decoder) Close() { d.close() }

// v1decoder is the sequential TRC1 rank reader.
type v1decoder struct {
	br     *bufio.Reader
	names  []string
	nRanks int
	next   int
	ctx    context.Context
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
	// A hostile or corrupt header can declare billions of events, but
	// each one still costs EventRecordSize bytes of input, so the first
	// draw is capped and the buffer grows through the pool as records
	// arrive: memory stays bounded by the stream's actual size, and the
	// final buffer is at most its class's 25 % over the rank.
	rt := &RankTrace{Rank: int(rank), Events: eventBufs.Get(int(min(nEvents, 1<<16)))}
	if d.rec == nil {
		d.rec = make([]byte, EventRecordSize)
	}
	rec := d.rec
	for j := uint32(0); j < nEvents; j++ {
		if _, err := io.ReadFull(d.br, rec); err != nil {
			eventBufs.Put(rt.Events)
			return nil, fmt.Errorf("trace: rank %d event %d: %w", rank, j, err)
		}
		e, err := GetEventRecord(rec, d.names)
		if err != nil {
			eventBufs.Put(rt.Events)
			return nil, err
		}
		if len(rt.Events) == cap(rt.Events) {
			grown := append(eventBufs.Get(int(min(uint64(nEvents), 2*uint64(j)))), rt.Events...)
			eventBufs.Put(rt.Events)
			rt.Events = grown
		}
		rt.Events = append(rt.Events, e)
	}
	return rt, nil
}

// Decode reads a trace in the binary format from r (either container
// version; the magic selects the codec). It is the batch form of
// Decoder: every rank is materialized into one Trace. A version-2
// container on a random-access input is decoded by index, its blocks
// fanned out over a GOMAXPROCS pool into their rank slots; anything else
// is decoded rank by rank.
func Decode(r io.Reader) (*Trace, error) {
	d, err := NewDecoder(r)
	if err != nil {
		return nil, err
	}
	defer d.Close()
	if d.blocks != nil && d.blocks.RandomAccess() {
		// The block index has been checked against the container's
		// size, so every declared rank is backed by a block.
		t := &Trace{Name: d.Name(), Ranks: make([]RankTrace, d.NumRanks())}
		if err := d.blocks.ReadAll(func(i int, rt *RankTrace) { t.Ranks[i] = *rt }); err != nil {
			return nil, err
		}
		return t, nil
	}
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
