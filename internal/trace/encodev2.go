package trace

import "io"

// EncodeV2 writes t to w in the columnar v2 trace format (TRC2): one
// delta+varint block per rank, checksummed and indexed by the footer.
// Each rank is encoded on the caller's goroutine into one reused payload
// buffer. The v1 format remains the default interchange form; see
// docs/FORMATS.md for when to prefer v2.
func EncodeV2(w io.Writer, t *Trace) error { return encode(w, t, 2) }

// UvarintSize returns len(binary.AppendUvarint(nil, v)) without
// encoding.
func UvarintSize(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// VarintSize returns len(binary.AppendVarint(nil, v)) without encoding
// (zigzag mapping, then uvarint length).
func VarintSize(v int64) int {
	return UvarintSize(uint64(v)<<1 ^ uint64(v>>63))
}

// EventsV2Bound returns len(AppendEventsV2(nil, nt, events)) for a
// table whose ids for the events' names all take idWidth bytes, and a
// bound on it when idWidth is the width of the largest of those ids: a
// size walk that looks no name up and produces no bytes.
func EventsV2Bound(idWidth int64, events []Event) int64 {
	n := idWidth * int64(len(events))
	var prev Time
	for _, e := range events {
		n += int64(UvarintSize(uint64(e.Kind)))
		n += int64(VarintSize(e.Enter - prev))
		prev = e.Enter
		n += int64(VarintSize(e.Exit - e.Enter))
		n += int64(VarintSize(int64(e.Peer)))
		n += int64(VarintSize(int64(e.Tag)))
		n += int64(VarintSize(e.Bytes))
		n += int64(VarintSize(int64(e.Root)))
	}
	return n
}
