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
// in-memory trace and the pipelined ReduceStreamToWriterOpts over a
// decoder. A worker takes the next rank from a source, reduces it,
// recycles the rank's events, and hands the reduction to a sink:
// collectSink builds a *Reduced; encodeSink (pipeline.go) encodes each
// rank's container chunk in file order.

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
// is i. next is called from one goroutine at a time. recycle, when
// non-nil, takes each rank back once the reducer has copied what it
// keeps; it is called concurrently from the workers.
//
// The error is deterministic. Each failure is recorded under its
// arrival index, a source error under the index being claimed, and the
// lowest is returned: ranks are claimed in order and every claimed rank
// is reduced, so every rank before a failed one has run. A cancellation
// with no failed rank returns ctx.Err().
func reduceRanks(name string, p Policy, next func() (*trace.RankTrace, error), recycle func(*trace.RankTrace), opts StreamOptions, sink rankSink) error {
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
				r := NewRankReducer(i, p)
				if err := r.FeedEvents(rt.Rank, rt.Events); err != nil {
					fail(i, fmt.Errorf("trace %q: %w", name, err))
					return
				}
				// The reducer copied everything it keeps out of rt.Events,
				// so the rank's storage can go back to the decoder now.
				if recycle != nil {
					recycle(rt)
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
