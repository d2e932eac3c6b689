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
// source, reduces it with the worker's one RankReducer (reset between
// ranks), recycles the rank's events, and files the rank's reduction and
// counters in the *Reduced under the rank's index.

// rankSource is where the engine takes its ranks from. An indexed source
// (at set) hands rank i to the worker that claimed index i, outside the
// engine's lock, so the workers decode in parallel; an ordered source
// (next set) yields one rank per call, under the lock.
type rankSource struct {
	// at returns rank i of n; it is called concurrently.
	at func(i int) (*trace.RankTrace, error)
	// n is the rank count: where an indexed source ends, and for either
	// source a cap on the Ranks slice drawn up front.
	n int
	// next returns the next rank, and io.EOF after the last.
	next func() (*trace.RankTrace, error)
	// recycle, when non-nil, takes each rank back once the reducer has
	// copied what it keeps; it is called concurrently from the workers.
	recycle func(*trace.RankTrace)
}

// reduceRanks reduces the ranks of src on a pool of opts.Workers workers
// (GOMAXPROCS when non-positive), numbering them by claim order: rank
// i's RankReduced.Rank is i. The reduction's storage comes from the
// pools behind RankReducer and is the caller's.
//
// The error is deterministic. Each failure is recorded under its rank
// index, a source error (decode or read) under the index being claimed,
// and the lowest is returned: ranks are claimed in order and every
// claimed rank is read and reduced, so every rank before a failed one
// has run. With no failed rank, a run whose context is done by the time
// every worker has returned returns ctx.Err().
func reduceRanks(name string, p Policy, src rankSource, opts StreamOptions) (*Reduced, error) {
	ctx := opts.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	// Latch an already-dead context synchronously: AfterFunc fires on its
	// own goroutine, and a small stream can finish before it runs.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// The declared rank count only caps the initial capacity: a hostile
	// header can promise a million ranks in a few bytes.
	red := &Reduced{Name: name, Method: p.Name(), Ranks: make([]RankReduced, 0, min(src.n, 1<<12))}
	var (
		mu       sync.Mutex // serializes src.next; guards red and the fields below
		claimed  int
		stop     bool
		errAt    int
		firstErr error
	)
	fail := func(i int, err error) {
		mu.Lock()
		stop = true
		if firstErr == nil || i < errAt {
			errAt, firstErr = i, err
		}
		mu.Unlock()
	}
	stopCancel := context.AfterFunc(ctx, func() {
		mu.Lock()
		stop = true
		mu.Unlock()
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
			var r *RankReducer
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
				if r == nil {
					r = NewRankReducer(i, p)
				} else {
					r.reset(i)
				}
				if err := r.FeedEvents(rt.Rank, rt.Events); err != nil {
					fail(i, fmt.Errorf("trace %q: %w", name, err))
					return
				}
				// The reducer copied everything it keeps out of rt.Events,
				// so the rank's storage can go back to the decoder now.
				if src.recycle != nil {
					src.recycle(rt)
				}
				mu.Lock()
				for len(red.Ranks) <= i {
					red.Ranks = append(red.Ranks, RankReduced{})
				}
				red.Ranks[i] = r.Finish()
				red.TotalSegments += r.TotalSegments()
				red.Matches += r.Matches()
				red.PossibleMatches += r.PossibleMatches()
				mu.Unlock()
			}
		})
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return red, nil
}
