package core

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/segment"
	"repro/internal/trace"
)

// Reduced trace file format (TRR1). The byte-level specification lives
// in docs/FORMATS.md; this comment is the summary.
//
// All integers little-endian. Layout:
//
//	magic  "TRR1"
//	name   length-prefixed workload name
//	method length-prefixed policy name
//	names  u32 count + length-prefixed strings (event names AND contexts)
//	nranks u32
//	per rank:
//	  rank u32, nstored u32, nexecs u32
//	  per stored segment: contextID u32, end i64, weight u32,
//	                      nevents u32, then 41-byte event records
//	  per exec: id u32, start i64            (12 bytes each)
//
// The 12-byte exec record is what makes reduction pay: a matched segment
// costs 12 bytes instead of nevents × 41.

const reducedMagic = "TRR1"

// ExecRecordSize is the encoded size of one segment-execution record.
const ExecRecordSize = 4 + 8

// EncodedReducedSize returns the byte size EncodeReduced would write.
func EncodedReducedSize(r *Reduced) int64 {
	var c trace.CountingWriter
	if err := EncodeReduced(&c, r); err != nil {
		panic("core: EncodedReducedSize: " + err.Error())
	}
	return c.N
}

// EncodeReduced writes r to w in the reduced binary format.
func EncodeReduced(w io.Writer, r *Reduced) error {
	bw := bufio.NewWriter(w)
	nt := reducedNameTable(r)
	if err := writeReducedHeader(bw, reducedMagic, r.Name, r.Method, nt, len(r.Ranks)); err != nil {
		return err
	}
	var chunk []byte
	for i := range r.Ranks {
		chunk = appendRankReducedV1(chunk[:0], nt, &r.Ranks[i])
		if _, err := bw.Write(chunk); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// writeReducedHeader writes the header both reduced container versions
// share: magic, workload name, method, name table, rank count.
func writeReducedHeader(w io.Writer, magic, name, method string, nt *trace.NameTable, nRanks int) error {
	if _, err := io.WriteString(w, magic); err != nil {
		return err
	}
	if err := trace.WriteString(w, name); err != nil {
		return err
	}
	if err := trace.WriteString(w, method); err != nil {
		return err
	}
	le := binary.LittleEndian
	if err := binary.Write(w, le, uint32(len(nt.Names()))); err != nil {
		return err
	}
	for _, s := range nt.Names() {
		if err := trace.WriteString(w, s); err != nil {
			return err
		}
	}
	return binary.Write(w, le, uint32(nRanks))
}

// appendRankReducedV1 appends one rank's TRR1 section — rank header,
// stored segments with fixed-width event records, 12-byte exec records —
// to dst and returns the extended slice. Both the batch encoder above
// and the pipelined reduce-to-writer path emit rank sections through
// this helper, so their bytes agree by construction.
func appendRankReducedV1(dst []byte, nt trace.NameIDs, rr *RankReduced) []byte {
	le := binary.LittleEndian
	dst = le.AppendUint32(dst, uint32(rr.Rank))
	dst = le.AppendUint32(dst, uint32(len(rr.Stored)))
	dst = le.AppendUint32(dst, uint32(len(rr.Execs)))
	var rec [trace.EventRecordSize]byte
	for _, s := range rr.Stored {
		dst = le.AppendUint32(dst, uint32(nt.ID(s.Context)))
		dst = le.AppendUint64(dst, uint64(s.End))
		dst = le.AppendUint32(dst, uint32(s.Weight))
		dst = le.AppendUint32(dst, uint32(len(s.Events)))
		for _, e := range s.Events {
			trace.PutEventRecord(rec[:], nt.ID(e.Name), e)
			dst = append(dst, rec[:]...)
		}
	}
	var exrec [ExecRecordSize]byte
	for _, ex := range rr.Execs {
		le.PutUint32(exrec[0:], uint32(ex.ID))
		le.PutUint64(exrec[4:], uint64(ex.Start))
		dst = append(dst, exrec[:]...)
	}
	return dst
}

// DecodeReduced reads a reduced trace in the binary format from rd.
// Both container versions are accepted; the magic selects the codec.
// Version-2 (TRR2) files on a random-access input (io.ReaderAt +
// io.Seeker) decode their blocks in parallel.
func DecodeReduced(rd io.Reader) (*Reduced, error) {
	return DecodeReducedWith(rd, trace.DecoderOptions{})
}

// DecodeReducedWith is DecodeReduced with explicit options: worker
// count for v2 block-parallel decode, allocation caps, and a context
// that cancels the decode between ranks.
func DecodeReducedWith(rd io.Reader, opts trace.DecoderOptions) (*Reduced, error) {
	opts = opts.Resolve()
	c, err := trace.OpenContainer(rd, reducedMagicV2)
	if err != nil {
		return nil, err
	}
	if c.Magic != reducedMagic && c.Magic != reducedMagicV2 {
		return nil, fmt.Errorf("core: bad magic %q", c.Magic)
	}
	hdr, names, nRanks, err := trace.ReadHeader(c.Header, opts.Limits, 2)
	if err != nil {
		return nil, err
	}
	// The declared rank count only caps the initial capacity: a hostile
	// header can promise a million ranks in a few bytes.
	r := &Reduced{Name: hdr[0], Method: hdr[1], Ranks: make([]RankReduced, 0, min(nRanks, 1<<12))}
	if c.Magic == reducedMagic {
		for i := 0; i < nRanks; i++ {
			if err := opts.Ctx.Err(); err != nil {
				return nil, err
			}
			rr, err := readRankReducedV1(c.Header, names)
			if err == io.EOF {
				// The header promised this rank: the file is truncated,
				// not cleanly ended.
				err = io.ErrUnexpectedEOF
			}
			if err != nil {
				return nil, fmt.Errorf("core: rank %d of %d: %w", i, nRanks, err)
			}
			r.Ranks = append(r.Ranks, rr)
		}
		return r, nil
	}
	blocks, err := trace.NewBlockReader(c, nRanks, opts,
		func(e trace.BlockEntry, payload []byte) (RankReduced, error) {
			return parseRankReducedV2(e, payload, names)
		})
	if err != nil {
		return nil, err
	}
	defer blocks.Close()
	for {
		rr, err := blocks.Next()
		if err == io.EOF {
			return r, nil
		}
		if err != nil {
			return nil, err
		}
		r.Ranks = append(r.Ranks, rr)
	}
}

// readRankReducedV1 reads one rank's TRR1 section.
func readRankReducedV1(br *bufio.Reader, names []string) (RankReduced, error) {
	le := binary.LittleEndian
	var hdr [12]byte // rank, nstored, nexecs
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return RankReduced{}, err
	}
	rr := RankReduced{Rank: int(le.Uint32(hdr[0:]))}
	nStored, nExecs := le.Uint32(hdr[4:]), le.Uint32(hdr[8:])
	if nStored > 1<<24 || nExecs > 1<<28 {
		return rr, fmt.Errorf("core: rank %d: implausible counts stored=%d execs=%d", rr.Rank, nStored, nExecs)
	}
	// Initial capacities are capped below the declared counts: a hostile
	// header can promise huge counts, but every record costs input
	// bytes, so growth-by-append bounds memory by stream size.
	rr.Stored = make([]*segment.Segment, 0, min(nStored, 1<<12))
	var rec [trace.EventRecordSize]byte
	for j := uint32(0); j < nStored; j++ {
		var shdr [20]byte // contextID, end, weight, nevents
		if _, err := io.ReadFull(br, shdr[:]); err != nil {
			return rr, err
		}
		ctxID, nEvents := le.Uint32(shdr[0:]), le.Uint32(shdr[16:])
		if int(ctxID) >= len(names) {
			return rr, fmt.Errorf("core: context id %d out of range", ctxID)
		}
		s := &segment.Segment{Context: names[ctxID], Rank: rr.Rank,
			End: int64(le.Uint64(shdr[4:])), Weight: int(le.Uint32(shdr[12:]))}
		s.Events = make([]trace.Event, 0, min(nEvents, 1<<12))
		for k := uint32(0); k < nEvents; k++ {
			if _, err := io.ReadFull(br, rec[:]); err != nil {
				return rr, err
			}
			e, err := trace.GetEventRecord(rec[:], names)
			if err != nil {
				return rr, err
			}
			s.Events = append(s.Events, e)
		}
		rr.Stored = append(rr.Stored, s)
	}
	rr.Execs = make([]Exec, 0, min(nExecs, 1<<16))
	var exrec [ExecRecordSize]byte
	for j := uint32(0); j < nExecs; j++ {
		if _, err := io.ReadFull(br, exrec[:]); err != nil {
			return rr, err
		}
		id := le.Uint32(exrec[0:])
		if err := checkExecID(rr.Rank, uint64(j), uint64(id), uint64(nStored)); err != nil {
			return rr, err
		}
		rr.Execs = append(rr.Execs, Exec{ID: int(id), Start: int64(le.Uint64(exrec[4:]))})
	}
	return rr, nil
}

// checkExecID rejects exec record j of a rank when it references a
// representative the rank does not store; both container versions hold
// the execution log to this.
func checkExecID(rank int, j, id, nStored uint64) error {
	if id >= nStored {
		return fmt.Errorf("core: rank %d exec %d: segment id %d out of range (%d stored)", rank, j, id, nStored)
	}
	return nil
}
