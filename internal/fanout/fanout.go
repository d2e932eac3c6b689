// Package fanout runs an indexed loop on a bounded set of goroutines:
// the random-access container read, the reduced container's chunk
// encode and the evaluation grid share it.
package fanout

import (
	"sync"
	"sync/atomic"
)

// Run runs fn(0), ..., fn(n-1) on up to workers goroutines, the caller's
// among them, each claiming the next index in order. A failure stops
// further claims, but every claimed index runs to its end; since indices
// are claimed in order, every index below a failing one has run, and the
// error of the lowest failing index is returned. With one worker, or one
// index, no goroutine is started. Every goroutine has returned when Run
// does.
func Run(workers, n int, fn func(i int) error) error {
	var (
		next     atomic.Int64
		stop     atomic.Bool
		mu       sync.Mutex
		errAt    = n
		firstErr error
	)
	work := func() {
		for !stop.Load() {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			if err := fn(i); err != nil {
				stop.Store(true)
				mu.Lock()
				if i < errAt {
					errAt, firstErr = i, err
				}
				mu.Unlock()
				return
			}
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < min(workers, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	return firstErr
}
