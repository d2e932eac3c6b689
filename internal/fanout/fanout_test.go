package fanout

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

// TestRunVisitsEveryIndexOnce: without a failure every index runs once,
// at any worker count, including more workers than indices.
func TestRunVisitsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 4, 64} {
		for _, n := range []int{0, 1, 3, 100} {
			counts := make([]atomic.Int32, n)
			if err := Run(workers, n, func(i int) error {
				counts[i].Add(1)
				return nil
			}); err != nil {
				t.Fatalf("workers=%d n=%d: %v", workers, n, err)
			}
			for i := range counts {
				if c := counts[i].Load(); c != 1 {
					t.Errorf("workers=%d n=%d: index %d ran %d times", workers, n, i, c)
				}
			}
		}
	}
}

// TestRunReportsLowestFailure: when several indices fail, Run returns
// the lowest one's error, and every index below it has run.
func TestRunReportsLowestFailure(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	for _, workers := range []int{1, 2, 4, 8} {
		for rep := 0; rep < 50; rep++ {
			const n = 64
			var ran [n]atomic.Bool
			err := Run(workers, n, func(i int) error {
				ran[i].Store(true)
				if i%7 == 5 {
					return fmt.Errorf("index %d", i)
				}
				return nil
			})
			if err == nil || err.Error() != "index 5" {
				t.Fatalf("workers=%d: error = %v, want index 5's", workers, err)
			}
			for i := 0; i < 5; i++ {
				if !ran[i].Load() {
					t.Fatalf("workers=%d: index %d below the failure never ran", workers, i)
				}
			}
		}
	}
}

// TestRunOneWorkerStaysOnCaller: one worker runs every index on the
// caller's goroutine, in order, and stops at the first failure.
func TestRunOneWorkerStaysOnCaller(t *testing.T) {
	before := runtime.NumGoroutine()
	errStop := errors.New("stop")
	var order []int
	err := Run(1, 10, func(i int) error {
		if g := runtime.NumGoroutine(); g != before {
			t.Errorf("index %d: %d goroutines, want %d", i, g, before)
		}
		order = append(order, i)
		if i == 3 {
			return errStop
		}
		return nil
	})
	if err != errStop {
		t.Fatalf("error = %v, want %v", err, errStop)
	}
	if fmt.Sprint(order) != "[0 1 2 3]" {
		t.Errorf("ran %v, want [0 1 2 3]", order)
	}
}
