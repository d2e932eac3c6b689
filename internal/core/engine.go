package core

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync"

	"repro/internal/trace"
)

// One engine runs every rank-parallel reduction — batch Reduce over an
// in-memory trace, ReduceStream over a decoder, and the pipelined
// ReduceStreamToWriter. A worker takes the next rank from a source,
// reduces it, recycles the rank's events, and hands the reduction to a
// sink: collectSink builds a *Reduced; encodeSink (pipeline.go) encodes
// each rank's container chunk in file order.

// rankSink receives each reduced rank on the worker that reduced it.
type rankSink interface {
	// put takes rank i's finished reducer. Calls run concurrently, one
	// per rank index.
	put(i int, r *RankReducer)
	// abort releases workers blocked in put once the run has failed.
	abort()
}

// reduceRanks reduces the ranks next yields (one per call, io.EOF at
// the end) on a pool of opts.Workers workers (GOMAXPROCS when
// non-positive), numbering them by arrival: rank i's RankReduced.Rank
// is i. next is called from one goroutine at a time.
//
// The error is deterministic. Each failure is recorded under its
// arrival index, a source error under the index being claimed, and the
// lowest is returned: ranks are claimed in order and every claimed rank
// is reduced, so every rank before a failed one has run. A cancellation
// with no failed rank returns ctx.Err().
func reduceRanks(name string, p Policy, next func() (*trace.RankTrace, error), opts StreamOptions, sink rankSink) error {
	ctx := opts.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	// Latch an already-dead context synchronously: AfterFunc fires on its
	// own goroutine, and a small stream can finish before it runs.
	if err := ctx.Err(); err != nil {
		return err
	}
	var (
		mu        sync.Mutex // serializes next; guards the fields below
		claimed   int
		stop      bool
		cancelled bool
		errAt     int
		firstErr  error
	)
	fail := func(i int, err error) {
		mu.Lock()
		stop = true
		if firstErr == nil || i < errAt {
			errAt, firstErr = i, err
		}
		mu.Unlock()
		// The failed rank never reaches the sink, so release any worker
		// waiting there for its turn.
		sink.abort()
	}
	stopCancel := context.AfterFunc(ctx, func() {
		mu.Lock()
		stop, cancelled = true, true
		mu.Unlock()
		sink.abort()
	})
	defer stopCancel()
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		// Label the workers so CPU profiles split reduction time by
		// method instead of lumping it under one anonymous function
		// (tracereduce -cpuprofile, tracereduced -cpuprofile).
		go pprof.Do(ctx, pprof.Labels(
			"subsystem", "reduce-pipeline",
			"method", p.Name(),
			"worker", strconv.Itoa(w),
		), func(context.Context) {
			defer wg.Done()
			for {
				mu.Lock()
				if stop {
					mu.Unlock()
					return
				}
				i := claimed
				rt, err := next()
				if err != nil {
					stop = true
				} else {
					claimed++
				}
				mu.Unlock()
				if err == io.EOF {
					return
				}
				if err != nil {
					fail(i, err)
					return
				}
				r := NewRankReducerMode(i, p, opts.Mode)
				if err := r.FeedEvents(rt.Rank, rt.Events); err != nil {
					fail(i, fmt.Errorf("trace %q: %w", name, err))
					return
				}
				// The reducer copied everything it keeps out of rt.Events,
				// so the rank's storage can go back to the decoder now.
				if opts.Recycle != nil {
					opts.Recycle(rt)
				}
				sink.put(i, r)
			}
		})
	}
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if firstErr != nil {
		return firstErr
	}
	if cancelled {
		return ctx.Err()
	}
	return nil
}

// collectSink gathers the reduced ranks into one *Reduced.
type collectSink struct {
	mu  sync.Mutex
	red *Reduced
}

func (c *collectSink) put(i int, r *RankReducer) {
	rr := r.Finish()
	c.mu.Lock()
	defer c.mu.Unlock()
	for len(c.red.Ranks) <= i {
		c.red.Ranks = append(c.red.Ranks, RankReduced{})
	}
	c.red.Ranks[i] = rr
	c.red.TotalSegments += r.TotalSegments()
	c.red.Matches += r.Matches()
	c.red.PossibleMatches += r.PossibleMatches()
}

func (c *collectSink) abort() {}

// collect runs the engine into a collectSink; nRanks, when known, sizes
// the rank slice up front.
func collect(name string, p Policy, next func() (*trace.RankTrace, error), opts StreamOptions, nRanks int) (*Reduced, error) {
	c := &collectSink{red: &Reduced{Name: name, Method: p.Name(), Ranks: make([]RankReduced, 0, nRanks)}}
	if err := reduceRanks(name, p, next, opts, c); err != nil {
		return nil, err
	}
	return c.red, nil
}

// ReduceStream reduces a trace that is still being produced: next is
// called until it returns io.EOF and must yield one rank's event stream
// per call (trace.Decoder's NextRank, a generator, a network receiver).
// Ranks are handed to a GOMAXPROCS-bounded pool of RankReducers as they
// arrive, so at most `workers` ranks are in memory at once — the whole
// trace never is. The result is byte-identical to Reduce over the
// materialized trace: ranks land in the Reduced.Ranks slice in arrival
// order and the counters are merged as ranks finish.
//
// next is called from one goroutine at a time (serialized internally),
// so an unsynchronized decoder is fine. Policies must be safe for
// concurrent use on distinct ranks' segments, as with Reduce.
func ReduceStream(name string, p Policy, next func() (*trace.RankTrace, error)) (*Reduced, error) {
	return ReduceStreamMode(name, p, MatchModeExact, next)
}

// ReduceStreamMode is ReduceStream under an explicit MatchMode (see
// MatchMode for the per-mode guarantees).
func ReduceStreamMode(name string, p Policy, mode MatchMode, next func() (*trace.RankTrace, error)) (*Reduced, error) {
	return collect(name, p, next, StreamOptions{Mode: mode}, 0)
}
