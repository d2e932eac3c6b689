package trace

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"testing"
)

// refCursor is the bounds-checked varint cursor the v2 record decoder
// was first written against: every field goes through encoding/binary
// on a re-sliced payload. It is kept here, with refParseEventsV2, as the
// reference the inline decoder must agree with.
type refCursor struct {
	b   []byte
	off int
}

func (c *refCursor) uvarint() (uint64, error) {
	v, n := binary.Uvarint(c.b[c.off:])
	if n <= 0 {
		return 0, fmt.Errorf("trace: truncated or overlong varint at payload offset %d", c.off)
	}
	c.off += n
	return v, nil
}

func (c *refCursor) varint() (int64, error) {
	v, n := binary.Varint(c.b[c.off:])
	if n <= 0 {
		return 0, fmt.Errorf("trace: truncated or overlong varint at payload offset %d", c.off)
	}
	c.off += n
	return v, nil
}

func (c *refCursor) varint32(field string) (int32, error) {
	v, err := c.varint()
	if err != nil {
		return 0, err
	}
	if v < math.MinInt32 || v > math.MaxInt32 {
		return 0, fmt.Errorf("trace: %s value %d overflows int32", field, v)
	}
	return int32(v), nil
}

// refParseEventsV2 is the reference v2 record decoder: one field at a
// time through refCursor, each check made as soon as its field is read.
// It returns the events and the number of payload bytes consumed.
func refParseEventsV2(payload []byte, names []string, n uint32) ([]Event, int, error) {
	c := &refCursor{b: payload}
	if n == 0 {
		return nil, 0, nil
	}
	if uint64(len(c.b)) < uint64(n)*minEventV2Size {
		return nil, 0, fmt.Errorf("trace: %d events declared but only %d payload bytes remain", n, len(c.b))
	}
	events := make([]Event, 0, n)
	var prev Time
	for j := uint32(0); j < n; j++ {
		nameID, err := c.uvarint()
		if err != nil {
			return nil, 0, err
		}
		if nameID >= uint64(len(names)) {
			return nil, 0, fmt.Errorf("trace: name id %d out of range (%d names)", nameID, len(names))
		}
		kind, err := c.uvarint()
		if err != nil {
			return nil, 0, err
		}
		if kind >= uint64(numKinds) {
			return nil, 0, fmt.Errorf("trace: unknown event kind %d", kind)
		}
		dEnter, err := c.varint()
		if err != nil {
			return nil, 0, err
		}
		dur, err := c.varint()
		if err != nil {
			return nil, 0, err
		}
		peer, err := c.varint32("peer")
		if err != nil {
			return nil, 0, err
		}
		tag, err := c.varint32("tag")
		if err != nil {
			return nil, 0, err
		}
		nbytes, err := c.varint()
		if err != nil {
			return nil, 0, err
		}
		root, err := c.varint32("root")
		if err != nil {
			return nil, 0, err
		}
		enter := prev + dEnter
		prev = enter
		events = append(events, Event{
			Name:  names[nameID],
			Kind:  EventKind(kind),
			Enter: enter,
			Exit:  enter + dur,
			Peer:  peer,
			Tag:   tag,
			Bytes: nbytes,
			Root:  root,
		})
	}
	return events, c.off, nil
}

// v2Record is one event record spelled out field by field as the raw
// uvarints the payload carries (svarint fields already zigzag-mapped),
// so seeds can hold values no Event can: out-of-range ids and kinds,
// fields beyond int32.
type v2Record [8]uint64

func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

// appendRecords encodes records canonically.
func appendRecords(dst []byte, recs ...v2Record) []byte {
	for _, r := range recs {
		for _, f := range r {
			dst = binary.AppendUvarint(dst, f)
		}
	}
	return dst
}

// okRecord is a valid record: name 1, a send with one-byte and
// multi-byte fields mixed.
var okRecord = v2Record{1, uint64(KindSend), zigzag(1000), zigzag(-3), zigzag(7), zigzag(77), zigzag(1 << 40), zigzag(int64(NoPeer))}

// withField returns okRecord with field i replaced.
func withField(i int, v uint64) v2Record {
	r := okRecord
	r[i] = v
	return r
}

// parseV2Seed is one hand-built record payload with its record count,
// name-table size, and whether the decoder must reject it.
type parseV2Seed struct {
	name    string
	payload []byte
	n       uint32
	names   uint8
	wantErr bool
}

// parseV2Seeds returns one payload per defect the record decoder must
// reject and a few non-canonical encodings it must accept. Each seeds
// FuzzParseEventsV2 and is pinned by TestParseEventsV2Seeds.
func parseV2Seeds() []parseV2Seed {
	one := appendRecords(nil, okRecord)
	cut := append([]byte{}, one...)
	cut[len(cut)-1] = 0x80 // root's varint continues past the payload end
	long := func(varint ...byte) []byte {
		p := append([]byte{1, 0}, varint...) // name 1, kind 0, then Δenter
		return append(p, 0, 0, 0, 0, 0)      // duration, peer, tag, bytes, root
	}
	return []parseV2Seed{
		{"valid", appendRecords(nil, okRecord, okRecord), 2, 3, false},
		{"valid one-name table", appendRecords(nil, withField(0, 0)), 1, 1, false},
		{"zero records", nil, 0, 0, false},
		{"name id at table size", appendRecords(nil, okRecord, withField(0, 3)), 2, 3, true},
		{"name id huge", appendRecords(nil, withField(0, math.MaxUint64)), 1, 3, true},
		{"kind 13", appendRecords(nil, withField(1, uint64(numKinds))), 1, 3, true},
		{"kind 12", appendRecords(nil, withField(1, uint64(numKinds)-1)), 1, 3, false},
		{"peer above int32", appendRecords(nil, withField(4, zigzag(math.MaxInt32+1))), 1, 3, true},
		{"tag below int32", appendRecords(nil, withField(5, zigzag(math.MinInt32-1))), 1, 3, true},
		{"root above int32", appendRecords(nil, withField(7, zigzag(math.MaxInt32+1))), 1, 3, true},
		{"int32 extremes", appendRecords(nil, v2Record{0, 0, 0, 0, zigzag(math.MaxInt32), zigzag(math.MinInt32), zigzag(math.MinInt64), zigzag(math.MinInt32)}), 1, 3, false},
		{"varint cut at payload end", cut, 1, 3, true},
		{"record cut short", appendRecords(nil, okRecord, okRecord)[:len(one)+5], 2, 3, true},
		{"11-byte varint", long(0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x00), 1, 3, true},
		{"10-byte varint overflowing", long(0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02), 1, 3, true},
		{"10-byte varint at the limit", long(0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01), 1, 3, false},
		{"non-canonical zero", long(0x80, 0x00), 1, 3, false},
		{"non-canonical every field", []byte{
			0x81, 0x00, // name 1
			0x83, 0x80, 0x00, // kind 3
			0x80, 0x80, 0x00, // Δenter 0
			0x81, 0x00, // duration -1
			0x80, 0x00, 0x80, 0x00, // peer 0, tag 0
			0x80, 0x80, 0x80, 0x00, // bytes 0
			0x80, 0x00, // root 0
		}, 1, 3, false},
		{"trailing bytes left for the caller", append(one, 9, 9), 1, 3, false},
		{"count beyond payload", one, 5, 3, true},
	}
}

// parseNames is the name table the record payloads resolve against;
// a table of size n is its first n entries.
var parseNames = func() []string {
	names := make([]string, 256)
	for i := range names {
		names[i] = fmt.Sprintf("f%d", i)
	}
	return names
}()

// parseBoth runs one payload through the decoder and the reference and
// fails unless they agree: equal events and equal consumption, or both
// an error. It reports whether the payload was rejected.
func parseBoth(t *testing.T, payload []byte, n uint32, nNames uint8) bool {
	t.Helper()
	names := parseNames[:nNames]
	want, wantOff, wantErr := refParseEventsV2(payload, names, n)
	c := NewCursor(payload)
	got, err := ParseEventsV2Into(c, names, n, nil)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("n=%d names=%d payload %x: decoder err=%v, reference err=%v", n, nNames, payload, err, wantErr)
	}
	if err != nil {
		return true
	}
	if !slices.Equal(got, want) {
		t.Fatalf("n=%d names=%d payload %x: decoder events\n%v\nreference\n%v", n, nNames, payload, got, want)
	}
	if off := len(payload) - c.Len(); off != wantOff {
		t.Fatalf("n=%d names=%d payload %x: decoder consumed %d bytes, reference %d", n, nNames, payload, off, wantOff)
	}
	return false
}

// TestParseEventsV2Seeds pins which hand-built payloads the record
// decoder accepts and rejects, and that it agrees with the reference on
// each.
func TestParseEventsV2Seeds(t *testing.T) {
	for _, s := range parseV2Seeds() {
		if rejected := parseBoth(t, s.payload, s.n, s.names); rejected != s.wantErr {
			t.Errorf("%s: rejected=%v, want %v", s.name, rejected, s.wantErr)
		}
	}
}

// FuzzParseEventsV2 holds the v2 record decoder to the reference on
// arbitrary payloads, record counts and name-table sizes. The container
// fuzzers rarely get here, since a mutated payload fails its block
// checksum first. Run it with
//
//	go test -run '^$' -fuzz '^FuzzParseEventsV2$' -fuzztime 30s ./internal/trace
func FuzzParseEventsV2(f *testing.F) {
	for _, s := range parseV2Seeds() {
		f.Add(s.payload, s.n, s.names)
	}
	f.Fuzz(func(t *testing.T, payload []byte, n uint32, nNames uint8) {
		parseBoth(t, payload, n, nNames)
	})
}
