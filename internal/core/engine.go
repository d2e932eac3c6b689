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
// decoder. A worker claims the next rank index, takes that rank from the
// source, reduces it, recycles the rank's events, and hands the
// reduction to a sink: collectSink builds a *Reduced; encodeSink
// (pipeline.go) encodes each rank's container chunk in file order.

// rankSink receives each reduced rank on the worker that reduced it.
type rankSink interface {
	// put takes rank i's finished reducer. Calls run concurrently, one
	// per rank index, and never wait for one another.
	put(i int, r *RankReducer)
	// abort tells the sink the run has failed, so it may drop what it
	// has not finished.
	abort()
}

// rankSource is where the engine takes its ranks from. An indexed source
// (at set) hands rank i to the worker that claimed index i, outside the
// engine's lock, so the workers decode in parallel; an ordered source
// (next set) yields one rank per call, under the lock.
type rankSource struct {
	// at returns rank i of n; it is called concurrently.
	at func(i int) (*trace.RankTrace, error)
	n  int
	// next returns the next rank, and io.EOF after the last.
	next func() (*trace.RankTrace, error)
	// recycle, when non-nil, takes each rank back once the reducer has
	// copied what it keeps; it is called concurrently from the workers.
	recycle func(*trace.RankTrace)
}

// reduceRanks reduces the ranks of src on a pool of opts.Workers workers
// (GOMAXPROCS when non-positive), numbering them by claim order: rank
// i's RankReduced.Rank is i.
//
// The error is deterministic. Each failure is recorded under its rank
// index, a source error (decode or read) under the index being claimed,
// and the lowest is returned: ranks are claimed in order and every
// claimed rank is read and reduced, so every rank before a failed one
// has run. A cancellation with no failed rank returns ctx.Err().
func reduceRanks(name string, p Policy, src rankSource, opts StreamOptions, sink rankSink) error {
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
		mu        sync.Mutex // serializes src.next; guards the fields below
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
				var rt *trace.RankTrace
				var err error
				if src.at == nil {
					rt, err = src.next()
				} else if i == src.n {
					err = io.EOF
				}
				if err != nil {
					stop = true
				} else {
					claimed++
				}
				mu.Unlock()
				if err == io.EOF {
					return
				}
				if err == nil && src.at != nil {
					rt, err = src.at(i)
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
				if src.recycle != nil {
					src.recycle(rt)
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
