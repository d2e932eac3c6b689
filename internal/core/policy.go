// Package core implements the paper's primary contribution: segment-
// similarity policies (relDiff, absDiff, the Minkowski family, the two
// wavelet transforms, iter_k and iter_avg), the trace-reduction engine
// that keeps one representative per repeating pattern, reconstruction of
// approximate full traces, the reduced-trace file format, and the
// evaluation metrics built on them (file-size percentage, degree of
// matching, approximation distance).
package core

import (
	"math"

	"repro/internal/segment"
	"repro/internal/wavelet"
)

// RepState is a policy's prepared, policy-specific derived state for one
// segment: whatever the policy wants computed once — at storage time for
// representatives, once per incoming segment for candidates — instead of
// on every pairwise comparison. Prepare fills it in place so the matcher
// can reuse one scratch instance for every scanned candidate; the slab in
// Class copies the contents at insertion, so a filled RepState is valid
// only until the next Prepare into it.
//
// Vec is the vector the policy matches on (the zero-padded measurement
// vector for the pairwise and Minkowski policies, the transformed stamp
// vector for the wavelets, empty for the counting policies), Norm the
// policy's pruning norm over Vec, and MaxAbs the largest absolute value
// in Vec.
type RepState struct {
	Vec    []float64
	Norm   float64
	MaxAbs float64
	tmp    []float64 // wavelet transform scratch, reused across Prepares
}

// reset empties the state for policies that keep no vector.
func (cs *RepState) reset() {
	cs.Vec = cs.Vec[:0]
	cs.Norm = 0
	cs.MaxAbs = 0
}

// Policy decides whether a new segment matches one of the stored
// representatives of its pattern class. The matcher guarantees that
// every class passed to Match holds only segments Comparable with cand
// (same context, same events, same message parameters), so policies only
// judge the timing measurements.
//
// A candidate may be a view of the decoded rank whose event stamps are
// absolute (see segment.Segment), so policies read candidate timing
// through the accessors — Measurements, StampVector and Stamps — never
// through Events' stamps directly. Stored representatives are clones
// with relative stamps.
type Policy interface {
	// Name returns the method's canonical name (e.g. "relDiff").
	Name() string
	// Prepare computes the derived matching state for a segment into cs,
	// overwriting (and reusing the storage of) whatever cs held. The
	// matcher calls it once per stored representative (at insertion, and
	// again after a mutating Absorb) and once per scanned candidate,
	// then hands the results back to Match.
	Prepare(seg *segment.Segment, cs *RepState)
	// Match returns the index within cls of the first representative
	// cand matches, or -1 for no match. cls holds, in collection order,
	// the representatives already kept for cand's pattern class; cs is
	// cand's own Prepare result.
	Match(cls *Class, cand *segment.Segment, cs *RepState) int
	// Absorb folds cand into the matched representative, reporting
	// whether it mutated the representative's measurements (only
	// iter_avg does; the matcher re-Prepares mutated representatives).
	Absorb(matched *segment.Segment, cand *segment.Segment) bool
}

// pruneMargin is the conservative relative slack the lower-bound pruning
// leaves for floating-point rounding. Pruning invariant: a representative
// is skipped only when its lower bound provably exceeds the acceptance
// bound — mathematically dist ≥ |‖a‖−‖b‖| holds exactly, and the margin
// (1e-9, against accumulated rounding below ~1e-12 for the
// integer-microsecond measurements the engine sees) guarantees the
// computed comparison can never reject a pair the full distance test
// would accept. First-match order is preserved because pruning only
// skips representatives that cannot match; the scan order is unchanged.
const pruneMargin = 1e-9

// pruned reports whether lower bound lb provably exceeds the acceptance
// bound, with pruneMargin's slack. The float64 conversion rounds the
// product before the addition, so no architecture fuses them into a
// multiply-add (see kernels.go).
func pruned(lb, bound float64) bool {
	return lb > bound+float64(pruneMargin*(bound+lb))
}

// maxAbsOf returns the largest absolute value in v.
func maxAbsOf(v []float64) float64 {
	var m float64
	for _, x := range v {
		if ax := math.Abs(x); ax > m {
			m = ax
		}
	}
	return m
}

// pad4 rounds a vector length up to a multiple of four, the kernel
// unroll width. The pad slots are zero in both the slab rows and the
// candidate vector, and zero-against-zero coordinates are neutral for
// every policy's test (|0−0| = 0 contributes nothing to any Minkowski
// sum or max, and relDiff/absDiff accept a zero difference outright), so
// padded decisions are bit-identical to unpadded ones.
func pad4(n int) int { return (n + 3) &^ 3 }

// prepareMeas fills cs with the measurement-space state shared by the
// pairwise and Minkowski policies: the candidate's measurement vector
// zero-padded to the kernel width, plus its max-abs. The vector is built
// into cs.Vec's storage so steady-state Prepare is allocation-free.
func prepareMeas(seg *segment.Segment, cs *RepState) {
	v := seg.Measurements(cs.Vec[:0])
	for n := pad4(len(v)); len(v) < n; {
		v = append(v, 0)
	}
	cs.Vec = v
	cs.MaxAbs = maxAbsOf(v)
	cs.Norm = 0
}

// relDiff compares each paired measurement in isolation:
// |a−b| / max(a, b) must not exceed the threshold (paper §3.2.1; the
// worked example gives |17−40|/40 = 0.58). Two zero measurements are
// equal by definition.
type relDiffPolicy struct{ threshold float64 }

func (p *relDiffPolicy) Name() string { return "relDiff" }

func (p *relDiffPolicy) Prepare(seg *segment.Segment, cs *RepState) {
	prepareMeas(seg, cs)
}

func (p *relDiffPolicy) Match(cls *Class, cand *segment.Segment, cs *RepState) int {
	return cls.scanRelDiff(p.threshold, cs)
}

func (p *relDiffPolicy) Absorb(*segment.Segment, *segment.Segment) bool { return false }

// absDiff allows a fixed absolute difference per paired measurement.
type absDiffPolicy struct{ threshold float64 }

func (p *absDiffPolicy) Name() string { return "absDiff" }

func (p *absDiffPolicy) Prepare(seg *segment.Segment, cs *RepState) {
	prepareMeas(seg, cs)
}

func (p *absDiffPolicy) Match(cls *Class, cand *segment.Segment, cs *RepState) int {
	return cls.scanAbsDiff(p.threshold, cs)
}

func (p *absDiffPolicy) Absorb(*segment.Segment, *segment.Segment) bool { return false }

// minkowskiPolicy computes the order-m Minkowski distance between the
// measurement vectors and accepts when it is at most threshold × the
// largest measurement in the pair of vectors (paper Eq. 1 and the worked
// example: max(51) × 0.2 = 10.2). m is 1 (Manhattan), 2 (Euclidean) or
// 0, which selects Chebyshev (m → ∞).
type minkowskiPolicy struct {
	name      string
	threshold float64
	m         int
}

func (p *minkowskiPolicy) Name() string { return p.name }

func (p *minkowskiPolicy) Prepare(seg *segment.Segment, cs *RepState) {
	prepareMeas(seg, cs)
	cs.Norm = minkowskiNorm(p.m, cs.Vec)
}

func (p *minkowskiPolicy) Match(cls *Class, cand *segment.Segment, cs *RepState) int {
	switch p.m {
	case 0:
		return cls.scanLinf(p.threshold, cs)
	case 1:
		return cls.scanL1(p.threshold, cs)
	}
	return cls.scanL2(p.threshold, cs)
}

func (p *minkowskiPolicy) Absorb(*segment.Segment, *segment.Segment) bool { return false }

// minkowskiNorm returns the order-m Minkowski norm of v for m = 1 or 2
// (m = 0 is the Chebyshev/sup norm).
func minkowskiNorm(m int, v []float64) float64 {
	var n float64
	switch m {
	case 0:
		n = maxAbsOf(v)
	case 1:
		for _, x := range v {
			n += math.Abs(x)
		}
	default:
		for _, x := range v {
			n += float64(x * x)
		}
		n = math.Sqrt(n)
	}
	return n
}

// wavePolicy transforms both stamp vectors (zero-padded to a power of
// two) and accepts when the Euclidean distance between the transforms is
// at most threshold × the largest value in the pair of transformed
// vectors (paper Figure 3: 1.9 ≤ 0.2 × 17.625).
type wavePolicy struct {
	name      string
	threshold float64
	haar      bool
}

func (p *wavePolicy) Name() string { return p.name }

func (p *wavePolicy) Prepare(seg *segment.Segment, cs *RepState) {
	// The stamp vector [0, enters/exits..., end] is appended into cs.Vec
	// and zero-padded to the next power of two before transforming in
	// place, so a warm Prepare allocates nothing. The padded length
	// depends only on the segment's own event count, and Comparable
	// segments have equal event counts, so every in-class comparison
	// sees equal-length transforms — the same lengths the pre-matcher
	// engine used.
	n := wavelet.NextPow2(seg.NumMeasurements() + 1)
	v := seg.StampVector(cs.Vec[:0])
	for len(v) < n {
		v = append(v, 0)
	}
	if cap(cs.tmp) < n {
		cs.tmp = make([]float64, n)
	}
	if p.haar {
		wavelet.HaarInPlaceScratch(v, cs.tmp[:n])
	} else {
		wavelet.AverageInPlaceScratch(v, cs.tmp[:n])
	}
	var sum float64
	for _, x := range v {
		sum += float64(x * x)
	}
	cs.Vec = v
	cs.Norm = math.Sqrt(sum)
	cs.MaxAbs = maxAbsOf(v)
}

func (p *wavePolicy) Match(cls *Class, cand *segment.Segment, cs *RepState) int {
	// Wavelet matching is the L2 rule over the prepared transforms, so
	// it shares the Euclidean slab kernel.
	return cls.scanL2(p.threshold, cs)
}

func (p *wavePolicy) Absorb(*segment.Segment, *segment.Segment) bool { return false }

// NewRelDiff returns the relative-difference policy with the given
// per-measurement threshold.
func NewRelDiff(threshold float64) Policy {
	return &relDiffPolicy{threshold: threshold}
}

// NewAbsDiff returns the absolute-difference policy; threshold is in time
// units (microseconds).
func NewAbsDiff(threshold float64) Policy {
	return &absDiffPolicy{threshold: threshold}
}

// NewManhattan returns the Minkowski m=1 policy.
func NewManhattan(threshold float64) Policy {
	return &minkowskiPolicy{name: "manhattan", threshold: threshold, m: 1}
}

// NewEuclidean returns the Minkowski m=2 policy.
func NewEuclidean(threshold float64) Policy {
	return &minkowskiPolicy{name: "euclidean", threshold: threshold, m: 2}
}

// NewChebyshev returns the Minkowski m→∞ policy (largest single
// measurement difference).
func NewChebyshev(threshold float64) Policy {
	return &minkowskiPolicy{name: "chebyshev", threshold: threshold, m: 0}
}

// NewAvgWave returns the average-wavelet-transform policy.
func NewAvgWave(threshold float64) Policy {
	return &wavePolicy{name: "avgWave", threshold: threshold, haar: false}
}

// NewHaarWave returns the Haar-wavelet-transform policy.
func NewHaarWave(threshold float64) Policy {
	return &wavePolicy{name: "haarWave", threshold: threshold, haar: true}
}
