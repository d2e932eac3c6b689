// Package bufpool is a size-classed free list of slices. The decoders,
// the pipelined reduce-to-writer path and the EXPERT analyzer draw their
// transient working set from it, so a call reuses the buffers earlier
// calls released instead of allocating them afresh.
//
// A Pool keeps one sync.Pool per capacity class. The classes are the
// capacities 1 to 8, then four per power of two (10, 12, 14, 16, 20,
// 24, 28, 32, 40, ...) up to 1<<24, so a miss allocates at most 25 %
// more than was asked for. Get draws only from the class that covers
// the request, and Put files a buffer under the largest class its
// capacity covers, so every buffer Get returns holds at least the
// requested capacity. Like any sync.Pool, the garbage collector empties
// the classes, so an idle process holds no pooled memory for long.
package bufpool

import (
	"math/bits"
	"sync"
	"unsafe"
)

const (
	// linearClasses are the classes of capacity 1..linearClasses.
	linearClasses = 8
	// maxShift makes 1<<maxShift the largest class capacity.
	maxShift = 24
	// numClasses counts the linear classes and four per power of two
	// from 2^3 to 2^maxShift.
	numClasses = linearClasses + 4*(maxShift-3)
	// maxCap is the capacity of the last class.
	maxCap = 1 << maxShift
)

// Pool is a size-classed pool of []T. The zero value is ready to use. A
// Pool must not be copied after first use.
//
// A class holds a pointer to its buffers' first element, never a slice
// header, so Get and Put allocate nothing on a hit.
type Pool[T any] struct {
	classes [numClasses]sync.Pool
}

// Get returns an empty slice with capacity at least n: a pooled buffer
// of n's class when one is free, else a new one of the class's capacity,
// at most 25 % over n. The contents past the length are unspecified. n
// <= 0 returns nil, and n past the last class allocates exactly n.
func (p *Pool[T]) Get(n int) []T {
	if n <= 0 {
		return nil
	}
	if n > maxCap {
		return make([]T, 0, n)
	}
	c := floorClass(n-1) + 1
	if e, _ := p.classes[c].Get().(*T); e != nil {
		return unsafe.Slice(e, classCap(c))[:0]
	}
	return make([]T, 0, classCap(c))
}

// Put files buf's storage under the largest class its capacity covers,
// for a later Get of that class. The caller must not use buf, or any
// slice sharing its storage, afterwards. A buffer of capacity 0 or past
// the last class is dropped.
func (p *Pool[T]) Put(buf []T) {
	if c := cap(buf); c > 0 && c <= maxCap {
		p.classes[floorClass(c)].Put(unsafe.SliceData(buf[:1]))
	}
}

// floorClass returns the largest class whose capacity is at most c, or
// -1 when c < 1. The class of capacity 2^k + j·2^(k-2) (1 <= j <= 4,
// k >= 3) has index linearClasses + 4(k-3) + j - 1.
func floorClass(c int) int {
	if c <= linearClasses {
		return c - 1
	}
	k := bits.Len(uint(c)) - 1 // 2^k <= c < 2^(k+1)
	j := (c >> (k - 2)) & 3    // c >= 2^k + j·2^(k-2)
	return linearClasses + 4*(k-3) + j - 1
}

// classCap returns the capacity of class i.
func classCap(i int) int {
	if i < linearClasses {
		return i + 1
	}
	k, j := 3+(i-linearClasses)/4, (i-linearClasses)%4+1
	return 1<<k + j<<(k-2)
}
