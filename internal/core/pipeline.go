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
// reduced-block encode all overlap. Each rank's reduced block is encoded
// by the worker that finished reducing that rank, while other workers
// are still pulling ranks from the decoder; only the final container
// assembly (header + spooled blocks + footer) is serial, and it goes
// through the batch encoder's writeReduced. The output is byte-identical
// to EncodeReduced of the batch Reduce result.
//
// Byte identity hinges on the name table: the batch encoders assign ids
// in first-use order scanning ranks 0,1,2,…, so the ids a rank's block
// needs depend only on ranks ≤ it. The pipeline reproduces that by
// registering each rank's names in strict rank order (a turnstile on the
// shared table) and snapshotting the rank's ids into a private read-only
// map, which the worker then encodes from without further
// synchronization. Because the table and the rank count live in the
// container header, no output byte can be emitted before the source is
// exhausted — encoded blocks are spooled in memory instead. Peak memory
// is O(workers) raw ranks plus the compact encoded blocks, far below the
// batch path's full trace + full Reduced.

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
// registration time while the turnstile lock is held. Encode workers
// read it lock-free while later ranks keep registering new names into
// the shared table.
type rankNameIDs map[string]uint32

func (m rankNameIDs) ID(name string) uint32 { return m[name] }

// snapshotRankNames registers one rank's names into nt (in the batch
// prescan's visit order) and returns the rank's private id snapshot.
func snapshotRankNames(nt *trace.NameTable, rr *RankReduced) rankNameIDs {
	ids := make(rankNameIDs)
	for _, s := range rr.Stored {
		ids[s.Context] = nt.ID(s.Context)
		for _, e := range s.Events {
			ids[e.Name] = nt.ID(e.Name)
		}
	}
	return ids
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
	// Workers bounds the reduce/encode pool; non-positive means
	// GOMAXPROCS. Output bytes are identical at every setting.
	Workers int
	// Ctx cancels the run: workers stop claiming ranks, turnstile
	// waiters are released, and ctx.Err() is returned. nil means
	// context.Background().
	Ctx context.Context
}

// ReduceStreamToWriterOpts reduces the ranks d decodes with policy p and
// writes the reduced container to w in the given version (1 = TRR1,
// 2 = TRR2), byte-identical to EncodeReduced of Reduce over the decoded
// trace. The workload name comes from d, and each rank goes back to
// d.Recycle as soon as its events are split into segments (the reducer
// copies what it keeps). When it returns an error it has closed d: the
// run stops pulling ranks at its first failure, and an unclosed
// random-access version-2 decoder would keep its block workers, and the
// ranks they decoded ahead, waiting for a consumer that never returns.
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
	s.regCond = sync.NewCond(&s.regMu)
	defer s.release()
	if err := reduceRanks(d.Name(), p, d.NextRank, d.Recycle, opts, s); err != nil {
		return nil, err
	}
	return s.write(w)
}

// chunkBufs holds the encoded rank chunks the pipeline spools until the
// container is assembled.
var chunkBufs bufpool.Pool[byte]

// encodeSink registers each reduced rank's names in rank order and
// encodes the rank's chunk on the worker that reduced it, spooling the
// chunks until write assembles the container. Each chunk is drawn from
// chunkBufs at its exact encoded size and returned by release.
type encodeSink struct {
	version int
	nt      *trace.NameTable

	// The registration turnstile: rank i's worker may register its
	// names only once ranks 0..i-1 have registered theirs, so the
	// shared table grows exactly as the batch prescan would.
	regMu   sync.Mutex
	regCond *sync.Cond
	regTurn int
	aborted bool

	outMu  sync.Mutex // guards the spooled chunks and the counters
	chunks [][]byte
	ranks  []uint32
	counts []uint32
	stats  StreamStats
}

func (s *encodeSink) put(i int, r *RankReducer) {
	rr := r.Finish()
	// Every reduced index takes its registration turn unless the run
	// aborts, so the turn sequence stays contiguous and no waiter is
	// stranded.
	s.regMu.Lock()
	for s.regTurn != i && !s.aborted {
		s.regCond.Wait()
	}
	if s.aborted {
		s.regMu.Unlock()
		return
	}
	ids := snapshotRankNames(s.nt, &rr)
	s.regTurn++
	s.regCond.Broadcast()
	s.regMu.Unlock()
	// Encode this rank's block concurrently from the private id snapshot;
	// the raw rank and reducer state die here, only the compact chunk is
	// spooled.
	size := rankReducedV1Size(&rr)
	if s.version == 2 {
		size = rankReducedV2Size(ids, &rr)
	}
	chunk := appendRankReduced(chunkBufs.Get(int(size)), s.version, ids, &rr)
	s.outMu.Lock()
	defer s.outMu.Unlock()
	for len(s.chunks) <= i {
		s.chunks = append(s.chunks, nil)
		s.ranks = append(s.ranks, 0)
		s.counts = append(s.counts, 0)
	}
	s.chunks[i] = chunk
	s.ranks[i] = uint32(rr.Rank)
	s.counts[i] = rankRecords(&rr)
	s.stats.TotalSegments += r.TotalSegments()
	s.stats.Matches += r.Matches()
	s.stats.PossibleMatches += r.PossibleMatches()
	s.stats.StoredSegments += len(rr.Stored)
}

// abort wakes every turnstile waiter: a failed rank never takes its
// turn, so later ranks must not wait for it.
func (s *encodeSink) abort() {
	s.regMu.Lock()
	s.aborted = true
	s.regCond.Broadcast()
	s.regMu.Unlock()
}

// release returns the spooled chunks to chunkBufs. The writer has
// copied them out by then, or the run failed.
func (s *encodeSink) release() {
	for i, chunk := range s.chunks {
		chunkBufs.Put(chunk)
		s.chunks[i] = nil
	}
}

// write assembles the container through writeReduced once the name
// table is complete.
func (s *encodeSink) write(w io.Writer) (*StreamStats, error) {
	s.stats.Ranks = len(s.chunks)
	cw := &passthroughCounter{w: w}
	err := writeReduced(cw, s.version, s.stats.Name, s.stats.Method, s.nt, len(s.chunks),
		func(i int) (uint32, uint32, []byte) { return s.ranks[i], s.counts[i], s.chunks[i] })
	if err != nil {
		return nil, err
	}
	s.stats.BytesWritten = cw.n
	return &s.stats, nil
}
