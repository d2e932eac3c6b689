package core

import (
	"context"
	"io"
	"sync"

	"repro/internal/bufpool"
	"repro/internal/trace"
)

// Pipelined reduce-to-writer path: the rank-parallel engine (engine.go)
// with an encoding sink, so decode, per-rank reduction, and
// reduced-block encode all overlap. On a random-access version-2 input
// each worker decodes the rank it claimed itself; on any other input the
// ranks are read in order under the engine's lock. Each rank's reduced
// block is encoded by a worker as soon as the rank's names are
// registered, while other workers keep reducing; only the final
// container assembly (header + spooled blocks + footer) is serial, and
// it goes through the batch encoder's writeReduced. The output is
// byte-identical to EncodeReduced of the batch Reduce result.
//
// Byte identity hinges on the name table: the batch encoders assign ids
// in first-use order scanning ranks 0,1,2,…, so the ids a rank's block
// needs depend only on ranks ≤ it. The pipeline reproduces that by
// registering each rank's names in strict rank order and snapshotting
// the rank's ids into a private read-only map, which the block is then
// encoded from without further synchronization. No worker waits for its
// turn: a rank that finishes before every lower rank has registered is
// parked as its compact RankReduced, and the worker that registers the
// rank before it registers and encodes it too. Because the table and
// the rank count live in the container header, no output byte can be
// emitted before the source is exhausted — encoded blocks are spooled in
// memory instead. Peak memory is O(workers) raw ranks plus the compact
// reductions, parked or encoded, far below the batch path's full trace
// + full Reduced.

// StreamStats summarizes a pipelined reduce-to-writer run: the reduction
// counters (matching the Reduced the batch path would have built) plus
// the bytes written.
type StreamStats struct {
	// Name and Method identify the workload and similarity policy.
	Name   string
	Method string
	// Ranks counts the ranks reduced and written.
	Ranks int
	// TotalSegments, Matches, and PossibleMatches mirror the Reduced
	// counters of the batch reduction.
	TotalSegments   int
	Matches         int
	PossibleMatches int
	// StoredSegments counts the representatives kept across all ranks.
	StoredSegments int
	// BytesWritten is the size of the reduced container produced.
	BytesWritten int64
}

// DegreeOfMatching returns Matches/PossibleMatches, the paper's quality
// metric, mirroring Reduced.DegreeOfMatching.
func (s *StreamStats) DegreeOfMatching() float64 {
	if s.PossibleMatches == 0 {
		return 1
	}
	return float64(s.Matches) / float64(s.PossibleMatches)
}

// rankNameIDs is one rank's slice of the shared name table, captured at
// registration time while the sink's lock is held. Encode workers read
// it lock-free while later ranks keep registering new names into the
// shared table.
type rankNameIDs map[string]uint32

func (m rankNameIDs) ID(name string) uint32 { return m[name] }

// snapshotRankNames registers one rank's names into nt (in the batch
// prescan's visit order) and returns the rank's private id snapshot and
// the largest id in it.
func snapshotRankNames(nt *trace.NameTable, rr *RankReduced) (rankNameIDs, uint32) {
	ids := make(rankNameIDs)
	var maxID uint32
	add := func(name string) {
		if _, ok := ids[name]; ok {
			return
		}
		id := nt.ID(name)
		ids[name] = id
		maxID = max(maxID, id)
	}
	for _, s := range rr.Stored {
		add(s.Context)
		for _, e := range s.Events {
			add(e.Name)
		}
	}
	return ids, maxID
}

// passthroughCounter counts the bytes actually forwarded to w.
type passthroughCounter struct {
	w io.Writer
	n int64
}

func (c *passthroughCounter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// StreamOptions configure the rank-parallel engine behind
// ReduceStreamToWriterOpts. The zero value runs on a GOMAXPROCS pool.
type StreamOptions struct {
	// Mode is ignored: every reduction runs the exact first-match scan.
	//
	// Deprecated: perfbench is the last caller that sets it.
	Mode MatchMode
	// Workers bounds the pool that decodes, reduces and encodes; a
	// random-access version-2 input is decoded on these workers, not on
	// the decoder's own. Non-positive means GOMAXPROCS. Output bytes are
	// identical at every setting.
	Workers int
	// Ctx cancels the run: workers stop claiming ranks, parked ranks are
	// dropped, and ctx.Err() is returned. nil means
	// context.Background().
	Ctx context.Context
}

// ReduceStreamToWriterOpts reduces the ranks d decodes with policy p and
// writes the reduced container to w in the given version (1 = TRR1,
// 2 = TRR2), byte-identical to EncodeReduced of Reduce over the decoded
// trace. The workload name comes from d, and each rank goes back to
// d.Recycle as soon as its events are split into segments (the reducer
// copies what it keeps). A version-2 d on a random-access input is read
// by index (trace.RankAt), each rank decoded by the worker that reduces
// it; any other d is read through NextRank. When it returns an error it
// has closed d, since the run stops pulling ranks at its first failure.
func ReduceStreamToWriterOpts(d *trace.Decoder, p Policy, w io.Writer, version int, opts StreamOptions) (_ *StreamStats, err error) {
	defer func() {
		if err != nil {
			d.Close()
		}
	}()
	if err := checkReducedVersion(version); err != nil {
		return nil, err
	}
	s := &encodeSink{version: version, nt: trace.NewNameTable(), stats: StreamStats{Name: d.Name(), Method: p.Name()}}
	defer s.release()
	src := rankSource{next: d.NextRank, recycle: d.Recycle}
	if at := trace.RankAt(d); at != nil {
		src = rankSource{at: at, n: d.NumRanks(), recycle: d.Recycle}
	}
	if err := reduceRanks(d.Name(), p, src, opts, s); err != nil {
		return nil, err
	}
	return s.write(w)
}

// chunkBufs holds the encoded rank chunks the pipeline spools until the
// container is assembled.
var chunkBufs bufpool.Pool[byte]

// encodeSink registers each reduced rank's names in rank order and
// encodes the rank's chunk on a worker, spooling the chunks until write
// assembles the container. Each chunk is drawn from chunkBufs at a bound
// on its encoded size and returned by release.
type encodeSink struct {
	version int
	nt      *trace.NameTable

	mu sync.Mutex // guards nt and the fields below
	// next is the lowest rank whose names are not yet registered. Rank i
	// registers only after ranks 0..i-1, so the shared table grows
	// exactly as the batch prescan would.
	next    int
	aborted bool
	slots   []rankSlot
	stats   StreamStats
}

// rankSlot is one rank's place in the container: its reduction while it
// is parked, waiting for a lower rank to register, then its chunk.
type rankSlot struct {
	parked  bool
	rr      RankReduced
	chunk   []byte
	rank    uint32
	records uint32
}

func (s *encodeSink) put(i int, r *RankReducer) {
	rr := r.Finish()
	s.mu.Lock()
	if s.aborted {
		s.mu.Unlock()
		return
	}
	for len(s.slots) <= i {
		s.slots = append(s.slots, rankSlot{})
	}
	s.stats.TotalSegments += r.TotalSegments()
	s.stats.Matches += r.Matches()
	s.stats.PossibleMatches += r.PossibleMatches()
	s.stats.StoredSegments += len(rr.Stored)
	if i != s.next {
		// A lower rank has not registered yet. Park this one for the
		// worker that registers the rank before it; the raw rank and the
		// reducer's state die here, only the compact reduction waits.
		s.slots[i].parked, s.slots[i].rr = true, rr
		s.mu.Unlock()
		return
	}
	// Register this rank, encode it, and go on with every rank parked
	// right behind it, one registration per lock so that other workers
	// can park or register meanwhile.
	for {
		ids, maxID := snapshotRankNames(s.nt, &rr)
		s.next++
		s.mu.Unlock()
		s.encode(i, &rr, ids, maxID)
		s.mu.Lock()
		if s.aborted || s.next == len(s.slots) || !s.slots[s.next].parked {
			s.mu.Unlock()
			return
		}
		i, rr = s.next, s.slots[s.next].rr
		s.slots[i].parked, s.slots[i].rr = false, RankReduced{}
	}
}

// encode encodes rank i's chunk from its id snapshot and spools it.
func (s *encodeSink) encode(i int, rr *RankReduced, ids rankNameIDs, maxID uint32) {
	size := rankReducedV1Size(rr)
	if s.version == 2 {
		size = rankReducedV2Bound(maxID, rr)
	}
	chunk := appendRankReduced(chunkBufs.Get(int(size)), s.version, ids, rr)
	s.mu.Lock()
	sl := &s.slots[i]
	sl.chunk, sl.rank, sl.records = chunk, uint32(rr.Rank), rankRecords(rr)
	s.mu.Unlock()
}

// abort stops registration: a failed rank never registers, so the ranks
// parked behind it never will either.
func (s *encodeSink) abort() {
	s.mu.Lock()
	s.aborted = true
	s.mu.Unlock()
}

// release returns the spooled chunks to chunkBufs. The writer has
// copied them out by then, or the run failed.
func (s *encodeSink) release() {
	for i := range s.slots {
		chunkBufs.Put(s.slots[i].chunk)
		s.slots[i] = rankSlot{}
	}
}

// write assembles the container through writeReduced once the name
// table is complete.
func (s *encodeSink) write(w io.Writer) (*StreamStats, error) {
	s.stats.Ranks = len(s.slots)
	cw := &passthroughCounter{w: w}
	err := writeReduced(cw, s.version, s.stats.Name, s.stats.Method, s.nt, len(s.slots),
		func(i int) (uint32, uint32, []byte) {
			sl := &s.slots[i]
			return sl.rank, sl.records, sl.chunk
		})
	if err != nil {
		return nil, err
	}
	s.stats.BytesWritten = cw.n
	return &s.stats, nil
}
