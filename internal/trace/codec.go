package trace

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"slices"

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
// encoding: the header with each distinct name once, then 8 header
// bytes per rank and EventRecordSize per event.
func EncodedSize(t *Trace) int64 {
	var s Sizer
	events := 0
	for i := range t.Ranks {
		evs := t.Ranks[i].Events
		events += len(evs)
		for j := range evs {
			s.Name(evs[j].Name)
		}
	}
	return s.Size(t.Name, len(t.Ranks), events)
}

// Sizer computes a trace's TRC1 size (EncodedSize) inside a walk the
// caller already makes: Name takes every event's name, and Size the
// workload name, rank count and event count. The zero value is ready to
// use.
type Sizer struct {
	names []string
	seen  map[string]struct{}
	// counted is a direct-mapped cache in front of seen: slot
	// nameSlot(s) holds the last name counted or found there, and bit k
	// of filled marks slot k as holding one. A hit still compares the
	// strings, so a collision costs one map lookup and never the count.
	counted [32]string
	filled  uint32
}

// Name counts one event's name, once however often it recurs.
func (s *Sizer) Name(name string) {
	k := nameSlot(name)
	if s.filled&(1<<k) != 0 && s.counted[k] == name {
		return
	}
	s.counted[k] = name
	s.filled |= 1 << k
	if _, ok := s.seen[name]; ok {
		return
	}
	if s.seen == nil {
		s.seen = map[string]struct{}{}
	}
	s.seen[name] = struct{}{}
	s.names = append(s.names, name)
}

// Size returns the TRC1 size of a trace called name with the given rank
// and event counts, whose event names went through Name.
func (s *Sizer) Size(name string, ranks, events int) int64 {
	return HeaderSize([]string{name}, s.names) + int64(ranks)*8 + int64(events)*EventRecordSize
}

// nameSlot keys a name into Sizer's 32-slot cache by its length, first
// byte and last byte.
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

// Encode writes t to w in the binary trace format.
func Encode(w io.Writer, t *Trace) error { return encode(w, t, 1) }

// EncodeV2 writes t to w in the columnar v2 trace format (TRC2): one
// delta+varint block per rank, checksummed and indexed by the footer.
// Each rank is encoded on the caller's goroutine into one reused payload
// buffer. The v1 format remains the default interchange form; see
// docs/FORMATS.md for when to prefer v2.
func EncodeV2(w io.Writer, t *Trace) error { return encode(w, t, 2) }

// encode writes t as a TRC container of the given version. Name ids are
// assigned in first-use order across ranks, so the table is complete
// before any rank is encoded; each rank's section is encoded on the
// caller's goroutine into one reused buffer.
func encode(w io.Writer, t *Trace, version int) error {
	nt := NewNameTable()
	for i := range t.Ranks {
		for _, e := range t.Ranks[i].Events {
			nt.ID(e.Name)
		}
	}
	var section []byte
	_, err := traceFamily.Write(w, version, []string{t.Name}, nt.names, len(t.Ranks), func(i int) (uint32, uint32, []byte) {
		rt := &t.Ranks[i]
		if version == 2 {
			section = AppendEventsV2(section[:0], nt, rt.Events)
		} else {
			section = appendRankV1(section[:0], nt, rt)
		}
		return uint32(rt.Rank), uint32(len(rt.Events)), section
	})
	return err
}

// appendRankV1 appends rank rt's TRC1 section — rank id, event count,
// then one fixed-width record per event — to dst and returns the
// extended slice.
func appendRankV1(dst []byte, nt *NameTable, rt *RankTrace) []byte {
	le := binary.LittleEndian
	dst = slices.Grow(dst, 8+len(rt.Events)*EventRecordSize)
	dst = le.AppendUint32(dst, uint32(rt.Rank))
	dst = le.AppendUint32(dst, uint32(len(rt.Events)))
	var rec [EventRecordSize]byte
	for _, e := range rt.Events {
		PutEventRecord(rec[:], nt.ID(e.Name), e)
		dst = append(dst, rec[:]...)
	}
	return dst
}

// readRankV1 reads one TRC1 rank section.
func readRankV1(br *bufio.Reader, names []string) (*RankTrace, error) {
	var hdr [8]byte // rank, nevents
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, err
	}
	le := binary.LittleEndian
	nEvents := le.Uint32(hdr[4:])
	// A hostile or corrupt header can declare billions of events, but
	// each one still costs EventRecordSize bytes of input, so the first
	// draw is capped and the buffer grows through the pool as records
	// arrive: memory stays bounded by the stream's actual size, and the
	// final buffer is at most its class's 25 % over the rank.
	rt := &RankTrace{Rank: int(le.Uint32(hdr[0:])), Events: eventBufs.Get(int(min(nEvents, 1<<16)))}
	for j := uint32(0); j < nEvents; j++ {
		// Peek hands out the record in place, so reading one copies and
		// allocates nothing.
		rec, err := br.Peek(EventRecordSize)
		if err != nil {
			eventBufs.Put(rt.Events)
			return nil, fmt.Errorf("event %d: %w", j, noEOF(err))
		}
		e, err := GetEventRecord(rec, names)
		if err != nil {
			eventBufs.Put(rt.Events)
			return nil, err
		}
		br.Discard(EventRecordSize)
		if len(rt.Events) == cap(rt.Events) {
			grown := append(eventBufs.Get(int(min(uint64(nEvents), 2*uint64(j)))), rt.Events...)
			eventBufs.Put(rt.Events)
			rt.Events = grown
		}
		rt.Events = append(rt.Events, e)
	}
	return rt, nil
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
// NextRank call yields the next rank's stream. It reads through a
// Container, so it shares the framing, the error latch and Close with
// every other container reader.
//
// For version-2 (TRC2) files on a random-access input (io.ReaderAt +
// io.Seeker, e.g. *os.File or bytes.Reader), every rank block can also
// be read by index (RankAt), which is how the reduction pipeline decodes
// each rank on the worker that reduces it. NextRank reads one block per
// call, on the caller's goroutine, through the index on such an input
// and through the inline block headers on a plain stream, with the same
// validation. Version-1 files always decode sequentially. A Decoder
// starts no goroutine.
type Decoder struct {
	c *Container[*RankTrace]
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
	// Workers is ignored. The batch decoders (Decode, the reduced-trace
	// decoder) fan a random-access version-2 input out over GOMAXPROCS
	// goroutines; NextRank and RankAt read on the caller's goroutine.
	//
	// Deprecated: perfbench is the last caller that sets it.
	Workers int
	// Ctx cancels the decode: NextRank returns ctx.Err(), and the batch
	// decoders' workers stop claiming blocks. nil means
	// context.Background().
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

// resolve returns the options with defaults applied: limits filled in
// and a non-nil context.
func (o DecoderOptions) resolve() DecoderOptions {
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
	c, err := Open(r, traceFamily, opts, readRankV1, parseRankV2)
	if err != nil {
		return nil, err
	}
	return &Decoder{c: c}, nil
}

// readHeader reads the header fields every container shares after the
// magic — nStrings length-prefixed strings (the workload name, then for
// the reduced containers the method), the name table, and the rank
// count — under the given allocation caps.
func readHeader(br *bufio.Reader, lim DecodeLimits, nStrings int) (strs, names []string, nRanks int, err error) {
	strs = make([]string, nStrings)
	for i := range strs {
		if strs[i], err = readString(br, lim.MaxStringLen); err != nil {
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
		s, err := readString(br, lim.MaxStringLen)
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

// readString reads a u32-length-prefixed string. A declared length above
// max is rejected before any allocation.
func readString(r io.Reader, max uint32) (string, error) {
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

// Name returns the workload name from the trace header.
func (d *Decoder) Name() string { return d.c.Header[0] }

// NumRanks returns the number of ranks the file declares.
func (d *Decoder) NumRanks() int { return d.c.Ranks }

// Version returns the container version being decoded (1 or 2).
func (d *Decoder) Version() int { return d.c.Version }

// NextRank decodes the next rank's event stream. It returns io.EOF after
// the last rank. Its first error is latched: every later call returns
// it.
func (d *Decoder) NextRank() (*RankTrace, error) { return d.c.Next() }

// RankAt returns a reader of d's ranks by index when d decodes a
// version-2 container from a random-access input and NextRank has not
// been called, and nil otherwise: version 1 and plain streams are read
// only in order, and so is a decoder a caller has begun to read that
// way. The reader decodes the i-th of d.NumRanks() rank blocks on the
// caller's goroutine and is safe for concurrent use; a caller reads
// through it or through NextRank, not both. Each rank it returns goes
// back through d.Recycle like one NextRank returned. It is a function
// rather than a method so that the public Decoder type gains no method.
func RankAt(d *Decoder) func(i int) (*RankTrace, error) { return d.c.RankAt() }

// Close makes every later NextRank fail, and every read through a reader
// RankAt returned. It frees nothing: a decoder holds no goroutine
// between calls, so one dropped without Close leaks nothing.
func (d *Decoder) Close() { d.c.Close() }

// Decode reads a trace in the binary format from r (either container
// version; the magic selects the codec). It is the batch form of
// Decoder: every rank is materialized into one Trace, read through
// Container.All, which fans a version-2 container on a random-access
// input out by index and reads anything else rank by rank.
func Decode(r io.Reader) (*Trace, error) {
	d, err := NewDecoder(r)
	if err != nil {
		return nil, err
	}
	ranks, err := d.c.All()
	if err != nil {
		return nil, err
	}
	t := &Trace{Name: d.Name(), Ranks: make([]RankTrace, len(ranks))}
	for i, rt := range ranks {
		t.Ranks[i] = *rt
	}
	return t, nil
}
