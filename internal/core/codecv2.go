package core

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/segment"
	"repro/internal/trace"
)

// Columnar reduced-trace container, version 2 (TRR2). The byte-level
// specification lives in docs/FORMATS.md; this comment is the summary.
//
// TRR2 shares the v2 block machinery with TRC2 (internal/trace): one
// self-contained block per rank with an inline header (rank, records,
// payload length, CRC32-C), a footer block index, and a trailer, so the
// reader can verify the layout once and decode blocks independently —
// in parallel on random-access inputs. Layout:
//
//	magic   "TRR2" (4 bytes)
//	name    length-prefixed workload name
//	method  length-prefixed similarity-method name
//	names   u32 count + length-prefixed strings (event names AND contexts)
//	nranks  u32
//	per rank, in file order: one block (records = nstored + nexecs)
//	  u32 rank, u32 records, u32 payload length, u32 CRC32-C(payload)
//	  payload:
//	    uvarint nstored, uvarint nexecs
//	    per stored segment: uvarint contextID, svarint end,
//	      uvarint weight, uvarint nevents, then v2 event records
//	      (the Δenter chain restarts per segment)
//	    per exec: uvarint id, svarint Δstart (vs the previous exec)
//	footer  block index + trailer, as in TRC2, trailing magic "TRR2"

const reducedMagicV2 = "TRR2"

// rankReducedV2Bound returns a bound on len(appendRankReducedV2(nil,
// nt, rr)) for any nt whose ids for rr's names are at most maxID: the
// size walk with every name id counted at maxID's width, so no name is
// looked up. It is exact when all those ids share one width (every id
// below 128, say). The pipeline draws each chunk's buffer by it.
func rankReducedV2Bound(maxID uint32, rr *RankReduced) int64 {
	idWidth := int64(trace.UvarintSize(uint64(maxID)))
	n := int64(trace.UvarintSize(uint64(len(rr.Stored))) + trace.UvarintSize(uint64(len(rr.Execs))))
	for _, s := range rr.Stored {
		n += idWidth
		n += int64(trace.VarintSize(s.End))
		n += int64(trace.UvarintSize(uint64(s.Weight)))
		n += int64(trace.UvarintSize(uint64(len(s.Events))))
		n += trace.EventsV2Bound(idWidth, s.Events)
	}
	var prev int64
	for _, ex := range rr.Execs {
		n += int64(trace.UvarintSize(uint64(ex.ID)))
		n += int64(trace.VarintSize(ex.Start - prev))
		prev = ex.Start
	}
	return n
}

// reducedNameTable prescans r and assigns name-table ids rank by rank in
// first-use order — the id assignment every reduced encoder (v1, v2, and
// the pipelined writer, which registers one rank at a time) shares.
func reducedNameTable(r *Reduced) *trace.NameTable {
	nt := trace.NewNameTable()
	for i := range r.Ranks {
		registerRankNames(nt, &r.Ranks[i])
	}
	return nt
}

// registerRankNames assigns ids for one rank's names in the exact order
// the batch prescan visits them: per stored segment, the context first,
// then its event names. The pipelined writer's snapshotRankNames visits
// each rank in the same order, in rank order, which yields the same
// table.
func registerRankNames(nt *trace.NameTable, rr *RankReduced) {
	for _, s := range rr.Stored {
		nt.ID(s.Context)
		for _, e := range s.Events {
			nt.ID(e.Name)
		}
	}
}

// appendRankReducedV2 appends one rank's v2 block payload to dst.
func appendRankReducedV2(dst []byte, nt trace.NameIDs, rr *RankReduced) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(rr.Stored)))
	dst = binary.AppendUvarint(dst, uint64(len(rr.Execs)))
	for _, s := range rr.Stored {
		dst = binary.AppendUvarint(dst, uint64(nt.ID(s.Context)))
		dst = binary.AppendVarint(dst, s.End)
		dst = binary.AppendUvarint(dst, uint64(s.Weight))
		dst = binary.AppendUvarint(dst, uint64(len(s.Events)))
		dst = trace.AppendEventsV2(dst, nt, s.Events)
	}
	var prev int64
	for _, ex := range rr.Execs {
		dst = binary.AppendUvarint(dst, uint64(ex.ID))
		dst = binary.AppendVarint(dst, ex.Start-prev)
		prev = ex.Start
	}
	return dst
}

// parseRankReducedV2 parses one rank's block payload. The result mirrors
// the v1 decoder's shapes exactly (always-allocated Stored/Execs/Events
// slices, ranks threaded into segments), so a v2 decode is structurally
// identical to a v1 decode of the same reduction.
func parseRankReducedV2(e trace.BlockEntry, payload []byte, names []string) (RankReduced, error) {
	rr := RankReduced{Rank: int(e.Rank)}
	c := trace.NewCursor(payload)
	nStored, err := c.Uvarint()
	if err != nil {
		return rr, err
	}
	nExecs, err := c.Uvarint()
	if err != nil {
		return rr, err
	}
	if nStored > 1<<24 || nExecs > 1<<28 {
		return rr, fmt.Errorf("core: rank %d: implausible counts stored=%d execs=%d", rr.Rank, nStored, nExecs)
	}
	if nStored+nExecs != uint64(e.Records) {
		return rr, fmt.Errorf("core: rank %d: block declares %d records but payload holds %d stored + %d execs",
			rr.Rank, e.Records, nStored, nExecs)
	}
	// Stored segments cost ≥ 4 payload bytes each and execs ≥ 2, so the
	// declared counts are bounded by the payload actually present.
	if uint64(c.Len()) < nStored*4+nExecs*2 {
		return rr, fmt.Errorf("core: rank %d: %d stored + %d execs declared but only %d payload bytes remain",
			rr.Rank, nStored, nExecs, c.Len())
	}
	rr.Stored = make([]*segment.Segment, 0, nStored)
	for j := uint64(0); j < nStored; j++ {
		ctxID, err := c.Uvarint()
		if err != nil {
			return rr, err
		}
		if ctxID >= uint64(len(names)) {
			return rr, fmt.Errorf("core: context id %d out of range", ctxID)
		}
		end, err := c.Varint()
		if err != nil {
			return rr, err
		}
		weight, err := c.Uvarint()
		if err != nil {
			return rr, err
		}
		if weight > math.MaxUint32 {
			return rr, fmt.Errorf("core: segment weight %d overflows uint32", weight)
		}
		nEvents, err := c.Uvarint()
		if err != nil {
			return rr, err
		}
		if nEvents > math.MaxUint32 {
			return rr, fmt.Errorf("core: event count %d overflows uint32", nEvents)
		}
		s := &segment.Segment{Context: names[ctxID], Rank: rr.Rank, End: end, Weight: int(weight)}
		events, err := trace.ParseEventsV2(c, names, uint32(nEvents))
		if err != nil {
			return rr, err
		}
		if events == nil {
			events = make([]trace.Event, 0)
		}
		s.Events = events
		rr.Stored = append(rr.Stored, s)
	}
	rr.Execs = make([]Exec, 0, nExecs)
	var prev int64
	for j := uint64(0); j < nExecs; j++ {
		id, err := c.Uvarint()
		if err != nil {
			return rr, err
		}
		if err := checkExecID(rr.Rank, j, id, nStored); err != nil {
			return rr, err
		}
		dStart, err := c.Varint()
		if err != nil {
			return rr, err
		}
		start := prev + dStart
		prev = start
		rr.Execs = append(rr.Execs, Exec{ID: int(id), Start: start})
	}
	if err := c.Done(); err != nil {
		return rr, fmt.Errorf("core: rank %d block: %w", rr.Rank, err)
	}
	return rr, nil
}
