package core

import (
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/bufpool"
	"repro/internal/trace"
)

// ApproximationDistance implements the paper's §4.3.3 error metric: the
// reconstructed trace is compared with the original time stamp by time
// stamp and the metric reports the absolute difference that the given
// quantile of stamps stays within (the paper uses 0.9: "what absolute
// difference 90% of time stamps had"). Marker stamps are excluded; they
// are bookkeeping, not measurements.
func ApproximationDistance(full, approx *trace.Trace, quantile float64) (trace.Time, error) {
	if !(quantile > 0 && quantile <= 1) {
		return 0, fmt.Errorf("core: quantile must be in (0,1], got %g", quantile)
	}
	if len(full.Ranks) != len(approx.Ranks) {
		return 0, fmt.Errorf("core: rank count mismatch %d vs %d", len(full.Ranks), len(approx.Ranks))
	}
	var diffs []trace.Time
	var fb, ab []trace.Time
	for r := range full.Ranks {
		fb = full.Timestamps(r, fb[:0])
		ab = approx.Timestamps(r, ab[:0])
		if len(fb) != len(ab) {
			return 0, fmt.Errorf("core: rank %d timestamp count mismatch %d vs %d", r, len(fb), len(ab))
		}
		for i := range fb {
			d := fb[i] - ab[i]
			if d < 0 {
				d = -d
			}
			diffs = append(diffs, d)
		}
	}
	return quantileAbsDiff(diffs, quantile), nil
}

// ApproximationDistanceReduced computes the same §4.3.3 error metric
// directly from the reduced form: the timestamps reconstruction would
// emit are each representative's relative stamps shifted by the
// execution's start, so the comparison walks the execution records in
// lockstep with the full trace instead of materializing a
// reconstruction (or even the stamp vectors). The result is identical to
// ApproximationDistance(full, red.Reconstruct(), quantile); that path
// remains as the parity reference. The stamp errors go into a pooled
// buffer, so a warm call allocates nothing.
func ApproximationDistanceReduced(full *trace.Trace, red *Reduced, quantile float64) (trace.Time, error) {
	if !(quantile > 0 && quantile <= 1) {
		return 0, fmt.Errorf("core: quantile must be in (0,1], got %g", quantile)
	}
	if len(full.Ranks) != len(red.Ranks) {
		return 0, fmt.Errorf("core: rank count mismatch %d vs %d", len(full.Ranks), len(red.Ranks))
	}
	// One counting pass sizes the diff buffer and validates execution ids.
	total := 0
	for r := range red.Ranks {
		rr := &red.Ranks[r]
		for _, ex := range rr.Execs {
			if ex.ID < 0 || ex.ID >= len(rr.Stored) {
				return 0, fmt.Errorf("core: rank %d exec references segment %d of %d", r, ex.ID, len(rr.Stored))
			}
			total += 2 * len(rr.Stored[ex.ID].Events)
		}
	}
	diffs := stampDiffs.Get(total)
	defer func() { stampDiffs.Put(diffs) }()
	for r := range full.Ranks {
		events := full.Ranks[r].Events
		rr := &red.Ranks[r]
		i := 0 // cursor over the full rank's non-marker events
		for _, ex := range rr.Execs {
			for _, e := range rr.Stored[ex.ID].Events {
				for i < len(events) && events[i].Kind.IsMarker() {
					i++
				}
				if i >= len(events) {
					return 0, stampCountMismatch(full, red, r)
				}
				fe := &events[i]
				i++
				d1 := fe.Enter - (e.Enter + ex.Start)
				if d1 < 0 {
					d1 = -d1
				}
				d2 := fe.Exit - (e.Exit + ex.Start)
				if d2 < 0 {
					d2 = -d2
				}
				diffs = append(diffs, d1, d2)
			}
		}
		for ; i < len(events); i++ {
			if !events[i].Kind.IsMarker() {
				return 0, stampCountMismatch(full, red, r)
			}
		}
	}
	return quantileAbsDiff(diffs, quantile), nil
}

// stampDiffs holds ApproximationDistanceReduced's stamp-error buffers.
var stampDiffs bufpool.Pool[trace.Time]

// stampCountMismatch builds the timestamp-count error for rank r in the
// same shape the reconstruct-based path reports.
func stampCountMismatch(full *trace.Trace, red *Reduced, r int) error {
	nFull := 0
	for _, e := range full.Ranks[r].Events {
		if !e.Kind.IsMarker() {
			nFull += 2
		}
	}
	nRed := 0
	rr := &red.Ranks[r]
	for _, ex := range rr.Execs {
		nRed += 2 * len(rr.Stored[ex.ID].Events)
	}
	return fmt.Errorf("core: rank %d timestamp count mismatch %d vs %d", r, nFull, nRed)
}

// quantileAbsDiff returns the value the given quantile of the collected
// absolute differences stays within (0 for no stamps): the element a
// full sort would leave at that rank. One counting pass over a
// log-linear histogram (histBucket) finds the bucket that holds the
// rank; a bucket one value wide answers at once, and a wider one is
// searched by selectNth over its members alone. It reorders diffs.
func quantileAbsDiff(diffs []trace.Time, quantile float64) trace.Time {
	if len(diffs) == 0 {
		return 0
	}
	k := min(max(int(quantile*float64(len(diffs)))-1, 0), len(diffs)-1)
	var counts [histBuckets]int
	for _, v := range diffs {
		if v < 0 {
			// Only |math.MinInt64| overflows to a negative error, and
			// it has no bucket: select over the whole input.
			return selectNth(diffs, k)
		}
		counts[histBucket(v)]++
	}
	b, below := 0, 0
	for below+counts[b] <= k {
		below += counts[b]
		b++
	}
	if b < 128 {
		return trace.Time(b)
	}
	m := 0
	for i, v := range diffs {
		if histBucket(v) == b {
			diffs[m], diffs[i] = v, diffs[m]
			m++
		}
	}
	return selectNth(diffs[:m], k-below)
}

// histBuckets is the size of quantileAbsDiff's histogram: 128 buckets
// one value wide, then 64 for each power of two from 2^7 to 2^62.
const histBuckets = 64 * 58

// histBucket returns the histogram bucket of v >= 0. Values below 128
// get a bucket each; each power of two [2^e, 2^(e+1)) above splits into
// 64 buckets of width 2^(e-6). Buckets ascend with v, so the element of
// rank k lies in the bucket where the running count passes k.
func histBucket(v trace.Time) int {
	if v < 128 {
		return int(v)
	}
	e := bits.Len64(uint64(v)) - 7
	return e<<6 + int(v>>e)
}

// selectNth returns the element slices.Sort would leave at a[k],
// reordering a. It is a quickselect whose rounds each narrow the window
// holding k (partition3). After 2·log2(len(a)) rounds it sorts what is
// left of the window instead, so an input that defeats the pivot rule
// costs no more than the sort that selection replaces.
func selectNth(a []trace.Time, k int) trace.Time {
	lo, hi := 0, len(a)
	for rounds := 2 * bits.Len(uint(len(a))); rounds > 0; rounds-- {
		var found bool
		if lo, hi, found = partition3(a, lo, hi, k); found {
			return a[k]
		}
	}
	slices.Sort(a[lo:hi])
	return a[k]
}

// partition3 is one selection round over the window a[lo:hi], which
// holds index k. It partitions the window three ways — below, equal to
// and above the median of its first, middle and last elements — and
// reports found when k lands among the elements equal to that pivot, so
// a run of equal values (stamp errors repeat a lot) settles in one
// round. Otherwise it returns the part that holds k as the next window.
func partition3(a []trace.Time, lo, hi, k int) (int, int, bool) {
	p := median3(a[lo], a[lo+(hi-lo)/2], a[hi-1])
	lt, i, gt := lo, lo, hi
	for i < gt {
		switch v := a[i]; {
		case v < p:
			a[lt], a[i] = v, a[lt]
			lt++
			i++
		case v > p:
			gt--
			a[i], a[gt] = a[gt], v
		default:
			i++
		}
	}
	switch {
	case k < lt:
		return lo, lt, false
	case k >= gt:
		return gt, hi, false
	}
	return lo, hi, true
}

// median3 returns the median of three values.
func median3(a, b, c trace.Time) trace.Time {
	if a > b {
		a, b = b, a
	}
	return max(a, min(b, c))
}

// SizeReport summarizes the file-size criterion for one reduction.
type SizeReport struct {
	// FullBytes is the encoded size of the original trace.
	FullBytes int64
	// ReducedBytes is the encoded size of the reduced trace.
	ReducedBytes int64
}

// Percent returns the reduced size as a percentage of the full size
// (paper §4.3.1).
func (s SizeReport) Percent() float64 {
	if s.FullBytes == 0 {
		return 0
	}
	return 100 * float64(s.ReducedBytes) / float64(s.FullBytes)
}
