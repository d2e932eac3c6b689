package bufpool

import (
	"testing"
	"unsafe"
)

// raceEnabled reports a build with the race detector (race_test.go),
// whose sync.Pool drops a quarter of all Puts at random.
var raceEnabled bool

// sizes covers every linear class, both edges of each quarter-octave
// class up to 2^12, and a few large requests.
func sizes() []int {
	var ns []int
	for n := 1; n <= 1<<12; n++ {
		ns = append(ns, n)
	}
	return append(ns, 1<<20-1, 1<<20, 1<<20+1, maxCap-1, maxCap)
}

// TestGetMissCapacity: on a miss, Get(n) returns an empty slice whose
// capacity is at least n and at most 1.25 n.
func TestGetMissCapacity(t *testing.T) {
	var p Pool[byte]
	for _, n := range sizes() {
		if n > 1<<20+1 {
			// Check the class arithmetic without allocating 16 MiB.
			if c := classCap(floorClass(n-1) + 1); c < n || 4*c > 5*n {
				t.Errorf("class for %d has capacity %d, want %d..%d", n, c, n, n*5/4)
			}
			continue
		}
		b := p.Get(n)
		if len(b) != 0 || cap(b) < n || 4*cap(b) > 5*n {
			t.Fatalf("Get(%d) = len %d cap %d, want len 0 and cap %d..%d", n, len(b), cap(b), n, n*5/4)
		}
	}
}

// TestClassesAscend: class capacities strictly ascend, and floorClass
// inverts classCap.
func TestClassesAscend(t *testing.T) {
	for i := 0; i < numClasses; i++ {
		if i > 0 && classCap(i) <= classCap(i-1) {
			t.Fatalf("class %d capacity %d does not exceed class %d's %d", i, classCap(i), i-1, classCap(i-1))
		}
		if got := floorClass(classCap(i)); got != i {
			t.Fatalf("floorClass(%d) = %d, want %d", classCap(i), got, i)
		}
	}
	if classCap(numClasses-1) != maxCap {
		t.Fatalf("last class capacity %d, want %d", classCap(numClasses-1), maxCap)
	}
}

// TestPutFilesUnderLargestCoveredClass: a buffer goes to the largest
// class its capacity covers, so a Get of that class draws it and a Get
// of the next class up does not.
func TestPutFilesUnderLargestCoveredClass(t *testing.T) {
	for _, c := range []int{1, 8, 9, 10, 11, 13, 16, 17, 100, 1000, 4097} {
		fc := floorClass(c)
		if classCap(fc) > c || (fc+1 < numClasses && classCap(fc+1) <= c) {
			t.Fatalf("floorClass(%d) = class of capacity %d, not the largest at most %d", c, classCap(fc), c)
		}
		if raceEnabled {
			continue
		}
		var p Pool[int64]
		buf := make([]int64, min(3, c), c)
		p.Put(buf)
		if classCap(fc+1) > c {
			if got := p.Get(classCap(fc + 1)); cap(got) > 0 && &got[:1][0] == &buf[:1][0] {
				t.Fatalf("cap %d: Get(%d) drew a buffer too small for it", c, classCap(fc+1))
			}
		}
		got := p.Get(classCap(fc))
		if len(got) != 0 || cap(got) != classCap(fc) || &got[:1][0] != &buf[:1][0] {
			t.Fatalf("cap %d: Get(%d) did not draw the buffer filed under class %d (len %d cap %d)",
				c, classCap(fc), fc, len(got), cap(got))
		}
	}
}

// TestZeroAndOversizedAreNoOps: Get(0) returns nil, and Put of a buffer
// without capacity or past the last class files nothing.
func TestZeroAndOversizedAreNoOps(t *testing.T) {
	var p Pool[byte]
	if b := p.Get(0); b != nil {
		t.Fatalf("Get(0) = %v (cap %d), want nil", b, cap(b))
	}
	if b := p.Get(-1); b != nil {
		t.Fatalf("Get(-1) = %v, want nil", b)
	}
	p.Put(nil)
	p.Put([]byte{})
	big := make([]byte, 0, maxCap+1)
	p.Put(big)
	if got := p.Get(maxCap); unsafe.SliceData(got[:1]) == unsafe.SliceData(big[:1]) {
		t.Fatal("a buffer past the last class was filed")
	}
	if got := p.Get(maxCap + 1); cap(got) != maxCap+1 {
		t.Fatalf("Get past the last class: cap %d, want exactly %d", cap(got), maxCap+1)
	}
}
