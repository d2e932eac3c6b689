package core

import (
	"context"
	"io"

	"repro/internal/trace"
)

// Pipelined reduce-to-writer path, in the paper's two steps: the
// rank-parallel engine (engine.go) reduces every rank of a decoder into
// one *Reduced, exactly as batch Reduce does, and writeReduced
// (codec.go), the encoder behind EncodeReduced too, registers the names
// in rank order and encodes the rank chunks in parallel. The output is
// byte-identical to EncodeReduced of the batch Reduce result because it
// is the same code. On a random-access version-2 input each worker
// decodes the rank it claimed itself; on any other input the ranks are
// read in order under the engine's lock. Each decoded rank goes back to
// the decoder as soon as it is reduced, so peak memory is O(workers) raw
// ranks plus every rank's compact reduction, held until its chunk is
// encoded.

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
	// Ctx cancels the run: workers stop claiming ranks, nothing is
	// written, and ctx.Err() is returned. nil means
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
	src := rankSource{next: d.NextRank, n: d.NumRanks(), recycle: d.Recycle}
	if at := trace.RankAt(d); at != nil {
		src.at, src.next = at, nil
	}
	red, err := reduceRanks(d.Name(), p, src, opts)
	if err != nil {
		return nil, err
	}
	// writeReduced gives each rank back to the pools once it is encoded,
	// so the stats are read first.
	st := &StreamStats{Name: red.Name, Method: red.Method, Ranks: len(red.Ranks),
		TotalSegments: red.TotalSegments, Matches: red.Matches, PossibleMatches: red.PossibleMatches,
		StoredSegments: red.StoredSegments()}
	if st.BytesWritten, err = writeReduced(w, red, version, opts.Workers, true); err != nil {
		return nil, err
	}
	return st, nil
}
