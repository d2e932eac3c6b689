package core

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"runtime"

	"repro/internal/bufpool"
	"repro/internal/fanout"
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

// reducedFamily is TRR1/TRR2, whose header carries the workload name and
// the method. internal/trace writes and opens its containers; this
// package supplies only the rank section grammar.
var reducedFamily = trace.Family{V1: reducedMagic, V2: reducedMagicV2, Strings: 2}

// ExecRecordSize is the encoded size of one segment-execution record.
const ExecRecordSize = 4 + 8

// EncodedReducedSize returns the byte size EncodeReduced would write,
// computed by walking r instead of encoding it: the header with each
// distinct name once, then 12 header bytes per rank, 20 per stored
// segment, EventRecordSize per stored event and ExecRecordSize per exec.
func EncodedReducedSize(r *Reduced) int64 {
	size := trace.HeaderSize([]string{r.Name, r.Method}, reducedNameTable(r).Names())
	for i := range r.Ranks {
		size += rankReducedV1Size(&r.Ranks[i])
	}
	return size
}

// rankReducedV1Size returns len(appendRankReducedV1(nil, nt, rr)): 12
// header bytes, 20 per stored segment, EventRecordSize per stored event
// and ExecRecordSize per exec.
func rankReducedV1Size(rr *RankReduced) int64 {
	size := 12 + int64(len(rr.Execs))*ExecRecordSize
	for _, s := range rr.Stored {
		size += 20 + int64(len(s.Events))*trace.EventRecordSize
	}
	return size
}

// EncodeReduced writes r to w as a reduced container of the given
// version: 1 for TRR1, the default interchange form, or 2 for the
// columnar TRR2. It runs writeReduced on the caller's goroutine and
// leaves r as it was.
func EncodeReduced(w io.Writer, r *Reduced, version int) error {
	if err := checkReducedVersion(version); err != nil {
		return err
	}
	_, err := writeReduced(w, r, version, 1, false)
	return err
}

// chunkBufs holds encoded rank chunks until their container is written.
var chunkBufs bufpool.Pool[byte]

// writeReduced writes red to w as a reduced container of the given
// version and returns the bytes written; EncodeReduced and the pipeline
// both write through it. It fills the name table in rank order first,
// so the chunk encoders only read it, then encodes the ranks' chunks on
// up to workers goroutines (GOMAXPROCS when non-positive) and writes the
// container through reducedFamily.Write. Each chunk's buffer is drawn
// from chunkBufs at the rank's TRR1 size: exact for TRR1, and above a
// TRR2 chunk whenever its varints are no longer than TRR1's fixed-width
// fields (append grows the rest). With release, each rank goes back to
// the pools (releaseRank) once its chunk is encoded, so red keeps only
// its name and counters; a batch caller, which owns its reduction,
// passes false.
func writeReduced(w io.Writer, red *Reduced, version, workers int, release bool) (int64, error) {
	nt := reducedNameTable(red)
	type chunk struct {
		rank, records uint32
		payload       []byte
	}
	chunks := make([]chunk, len(red.Ranks))
	defer func() {
		for _, c := range chunks {
			chunkBufs.Put(c.payload)
		}
	}()
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// Encoding a chunk cannot fail, so neither can the fan-out.
	fanout.Run(workers, len(chunks), func(i int) error {
		rr := &red.Ranks[i]
		buf := chunkBufs.Get(int(rankReducedV1Size(rr)))
		chunks[i] = chunk{uint32(rr.Rank), rankRecords(rr), appendRankReduced(buf, version, nt, rr)}
		if release {
			releaseRank(rr)
		}
		return nil
	})
	header := []string{red.Name, red.Method}
	// A destination that can grow (a bytes.Buffer) allocates once instead
	// of doubling as the container arrives.
	if g, ok := w.(interface{ Grow(int) }); ok {
		var payload int64
		for _, c := range chunks {
			payload += int64(len(c.payload))
		}
		g.Grow(int(reducedFamily.Size(version, header, nt.Names(), len(chunks), payload)))
	}
	return reducedFamily.Write(w, version, header, nt.Names(), len(chunks), func(i int) (uint32, uint32, []byte) {
		return chunks[i].rank, chunks[i].records, chunks[i].payload
	})
}

// checkReducedVersion rejects a reduced container version other than 1
// or 2.
func checkReducedVersion(version int) error {
	if version != 1 && version != 2 {
		return fmt.Errorf("core: unknown reduced container version %d", version)
	}
	return nil
}

// rankRecords is the record count of rank rr's TRR2 block: its stored
// segments plus its executions.
func rankRecords(rr *RankReduced) uint32 { return uint32(len(rr.Stored) + len(rr.Execs)) }

// appendRankReduced appends rank rr's chunk in the given container
// version to dst: a TRR1 rank section or a TRR2 block payload.
func appendRankReduced(dst []byte, version int, nt *trace.NameTable, rr *RankReduced) []byte {
	if version == 2 {
		return appendRankReducedV2(dst, nt, rr)
	}
	return appendRankReducedV1(dst, nt, rr)
}

// appendRankReducedV1 appends one rank's TRR1 section — rank header,
// stored segments with fixed-width event records, 12-byte exec records —
// to dst and returns the extended slice.
func appendRankReducedV1(dst []byte, nt *trace.NameTable, rr *RankReduced) []byte {
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
// io.Seeker) decode their blocks in parallel, each into its rank's slot.
func DecodeReduced(rd io.Reader) (*Reduced, error) {
	return DecodeReducedWith(rd, trace.DecoderOptions{})
}

// DecodeReducedWith is DecodeReduced with explicit options: allocation
// caps, and a context that cancels the decode between ranks. A
// random-access TRR2 input is fanned out over GOMAXPROCS goroutines;
// opts.Workers is ignored.
func DecodeReducedWith(rd io.Reader, opts trace.DecoderOptions) (*Reduced, error) {
	c, err := trace.Open(rd, reducedFamily, opts, readRankReducedV1, parseRankReducedV2)
	if err != nil {
		return nil, err
	}
	ranks, err := c.All()
	if err != nil {
		return nil, err
	}
	return &Reduced{Name: c.Header[0], Method: c.Header[1], Ranks: ranks}, nil
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
