package core

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"sync"

	"repro/internal/trace"
)

// Pipelined reduce-to-writer path: the rank-parallel engine (engine.go)
// with an encoding sink, so decode, per-rank reduction, and
// reduced-block encode all overlap. Each rank's reduced block is encoded
// by the worker that finished reducing that rank, while other workers
// are still pulling ranks from the source; only the final container
// assembly (header + spooled blocks + footer) is serial. The output is
// byte-identical to encoding the batch ReduceStreamMode result.
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

// ReduceStreamToWriter reduces the rank stream next (ReduceStream's
// contract: one rank per call, io.EOF at the end) and writes the reduced
// container to w in the given format version (1 = TRR1, 2 = TRR2),
// byte-identical to EncodeReduced/EncodeReducedV2 of the batch
// ReduceStream result, with the exact first-match scan.
func ReduceStreamToWriter(name string, p Policy, next func() (*trace.RankTrace, error), w io.Writer, version int) (*StreamStats, error) {
	return ReduceStreamToWriterMode(name, p, MatchModeExact, next, w, version)
}

// ReduceStreamToWriterMode is ReduceStreamToWriter under an explicit
// MatchMode (see MatchMode for the per-mode guarantees).
func ReduceStreamToWriterMode(name string, p Policy, mode MatchMode, next func() (*trace.RankTrace, error), w io.Writer, version int) (*StreamStats, error) {
	return ReduceStreamToWriterOpts(name, p, next, w, version, StreamOptions{Mode: mode})
}

// StreamOptions configure the rank-parallel engine behind the streaming
// entry points. The zero value is the exact-scan default on a
// GOMAXPROCS pool.
type StreamOptions struct {
	// Mode selects the matcher's search mode (see MatchMode).
	Mode MatchMode
	// Workers bounds the reduce/encode pool; non-positive means
	// GOMAXPROCS. Output bytes are identical at every setting.
	Workers int
	// Ctx cancels the run: workers stop claiming ranks, turnstile
	// waiters are released, and ctx.Err() is returned. nil means
	// context.Background().
	Ctx context.Context
	// Recycle, when non-nil, receives each rank back as soon as its
	// events have been split into segments (the reducer copies what it
	// keeps), letting the trace decoder reuse the event storage for a
	// later rank. Wire it to trace.Decoder.Recycle to bound a session's
	// event allocation at O(workers) buffers however many ranks stream
	// through. Must be safe for concurrent calls from the worker pool.
	Recycle func(*trace.RankTrace)
}

// ReduceStreamToWriterOpts is ReduceStreamToWriterMode with an explicit
// worker count and cancellation context.
func ReduceStreamToWriterOpts(name string, p Policy, next func() (*trace.RankTrace, error), w io.Writer, version int, opts StreamOptions) (*StreamStats, error) {
	if version != 1 && version != 2 {
		return nil, fmt.Errorf("core: unknown reduced container version %d", version)
	}
	s := &encodeSink{version: version, nt: trace.NewNameTable(), stats: StreamStats{Name: name, Method: p.Name()}}
	s.regCond = sync.NewCond(&s.regMu)
	if err := reduceRanks(name, p, next, opts, s); err != nil {
		return nil, err
	}
	return s.write(w)
}

// encodeSink registers each reduced rank's names in rank order and
// encodes the rank's chunk on the worker that reduced it, spooling the
// chunks until write assembles the container.
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
	var chunk []byte
	if s.version == 2 {
		chunk = appendRankReducedV2(nil, ids, &rr)
	} else {
		chunk = appendRankReducedV1(nil, ids, &rr)
	}
	s.outMu.Lock()
	defer s.outMu.Unlock()
	for len(s.chunks) <= i {
		s.chunks = append(s.chunks, nil)
		s.ranks = append(s.ranks, 0)
		s.counts = append(s.counts, 0)
	}
	s.chunks[i] = chunk
	s.ranks[i] = uint32(rr.Rank)
	s.counts[i] = uint32(len(rr.Stored) + len(rr.Execs))
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

// write assembles the container — header, spooled chunks, and for v2
// the footer — once the name table is complete.
func (s *encodeSink) write(w io.Writer) (*StreamStats, error) {
	s.stats.Ranks = len(s.chunks)
	cw := &passthroughCounter{w: w}
	if s.version == 2 {
		bw := trace.NewBlockWriter(cw)
		if err := writeReducedHeader(bw, reducedMagicV2, s.stats.Name, s.stats.Method, s.nt, len(s.chunks)); err != nil {
			return nil, err
		}
		for i, chunk := range s.chunks {
			if err := bw.WriteBlock(s.ranks[i], s.counts[i], chunk); err != nil {
				return nil, err
			}
		}
		if err := bw.Finish(reducedMagicV2); err != nil {
			return nil, err
		}
	} else {
		bw := bufio.NewWriter(cw)
		if err := writeReducedHeader(bw, reducedMagic, s.stats.Name, s.stats.Method, s.nt, len(s.chunks)); err != nil {
			return nil, err
		}
		for _, chunk := range s.chunks {
			if _, err := bw.Write(chunk); err != nil {
				return nil, err
			}
		}
		if err := bw.Flush(); err != nil {
			return nil, err
		}
	}
	s.stats.BytesWritten = cw.n
	return &s.stats, nil
}
