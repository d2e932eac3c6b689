package core

import "math"

// Fused batch distance kernels over the class slab. Each kernel walks
// the row-major slab directly — contiguous rows plus the parallel
// norm/max-abs columns — fusing the lower-bound prune and the full
// distance test into one pass and returning the first matching row in
// scan order (or -1).
//
// Decision identity with the pre-slab per-representative loops is a hard
// requirement (it is what keeps the output bytes unchanged), so the
// kernels respect these rules:
//
//   - Sum-accumulating distances (L1, L2, general Lm, and the wavelets'
//     Euclidean) are order-sensitive under floating point, so the 4-wide
//     unroll runs ACROSS rows — four independent accumulators, one per
//     row, each summing coordinates in index order — never within a row.
//   - A pruned row is skipped without consulting its computed distance,
//     exactly as the old loops did: the match test is
//     !pruned(lb, bound) && dist <= bound, evaluated per row in order.
//   - Partial-distance early exit (the checkpoint every scanCheckStep
//     coordinates in the L1/L2/Chebyshev kernels) applies the EXACT
//     final predicate to the partial accumulation. Each accumulator only
//     grows — float addition of non-negative terms and float max are
//     monotone, and math.Sqrt is a monotone correctly-rounded function —
//     so a partial distance already past its bound proves the full
//     distance is past it too, and skipping the rest of the row can
//     never flip a decision. Rows that survive every checkpoint finish
//     their accumulation in the unchanged coordinate order, so their
//     final sums stay bit-identical. The general-Lm kernel takes no
//     early exit: math.Pow is not guaranteed monotone, so no partial
//     predicate is provably conservative there.
//   - Every product is rounded before it is added: an explicit
//     float64(x*y) conversion, across which the Go spec forbids fusing.
//     arm64, ppc64le, s390x and riscv64 would otherwise compile x*y+z
//     to one fused multiply-add, whose single rounding can flip a
//     decision that amd64 makes; CI fails on any fused instruction.
//
// Comparison-only tests (relDiff, absDiff) are order-insensitive, so
// those kernels may unroll within a row as well.

// scanCheckStep is the number of coordinates the accumulating kernels
// advance between early-exit checkpoints: small enough to bail out of
// hopeless rows after a fraction of the width, large enough that the
// checkpoint's comparisons amortize.
const scanCheckStep = 8

// scanL2 returns the first row whose Euclidean distance to cs.Vec is
// within t × max(maxAbs pair), the shared match rule of the euclidean
// and wavelet policies.
func (c *Class) scanL2(t float64, cs *RepState) int {
	v := cs.Vec
	w := c.width
	n := len(c.norm)
	data := c.data
	i := 0
	for ; i+4 <= n; i += 4 {
		b0, p0 := c.l2Row(t, cs, i)
		b1, p1 := c.l2Row(t, cs, i+1)
		b2, p2 := c.l2Row(t, cs, i+2)
		b3, p3 := c.l2Row(t, cs, i+3)
		if p0 && p1 && p2 && p3 {
			continue
		}
		r0 := data[i*w : i*w+w]
		r1 := data[(i+1)*w : (i+1)*w+w]
		r2 := data[(i+2)*w : (i+2)*w+w]
		r3 := data[(i+3)*w : (i+3)*w+w]
		var s0, s1, s2, s3 float64
		dead := false
		for j := 0; j < w; {
			end := j + scanCheckStep
			if end > w {
				end = w
			}
			for ; j < end; j++ {
				x := v[j]
				d0 := r0[j] - x
				d1 := r1[j] - x
				d2 := r2[j] - x
				d3 := r3[j] - x
				s0 += float64(d0 * d0)
				s1 += float64(d1 * d1)
				s2 += float64(d2 * d2)
				s3 += float64(d3 * d3)
			}
			if j < w &&
				(p0 || math.Sqrt(s0) > b0) && (p1 || math.Sqrt(s1) > b1) &&
				(p2 || math.Sqrt(s2) > b2) && (p3 || math.Sqrt(s3) > b3) {
				dead = true
				break
			}
		}
		if dead {
			continue
		}
		switch {
		case !p0 && math.Sqrt(s0) <= b0:
			return i
		case !p1 && math.Sqrt(s1) <= b1:
			return i + 1
		case !p2 && math.Sqrt(s2) <= b2:
			return i + 2
		case !p3 && math.Sqrt(s3) <= b3:
			return i + 3
		}
	}
	for ; i < n; i++ {
		b, p := c.l2Row(t, cs, i)
		if p {
			continue
		}
		row := data[i*w : i*w+w]
		var s float64
		dead := false
		for j := 0; j < w; {
			end := j + scanCheckStep
			if end > w {
				end = w
			}
			for ; j < end; j++ {
				d := row[j] - v[j]
				s += float64(d * d)
			}
			if j < w && math.Sqrt(s) > b {
				dead = true
				break
			}
		}
		if !dead && math.Sqrt(s) <= b {
			return i
		}
	}
	return -1
}

// l2Row computes row i's acceptance bound and prune verdict for the
// pair-max L2 rule (also the exact bound math of the pre-slab loop).
func (c *Class) l2Row(t float64, cs *RepState, i int) (bound float64, prune bool) {
	maxVal := cs.MaxAbs
	if rm := c.maxAbs[i]; rm > maxVal {
		maxVal = rm
	}
	bound = float64(t * maxVal)
	return bound, pruned(math.Abs(c.norm[i]-cs.Norm), bound)
}

// scanL1 is scanL2's Manhattan (order-1) counterpart.
func (c *Class) scanL1(t float64, cs *RepState) int {
	v := cs.Vec
	w := c.width
	n := len(c.norm)
	data := c.data
	i := 0
	for ; i+4 <= n; i += 4 {
		b0, p0 := c.l2Row(t, cs, i)
		b1, p1 := c.l2Row(t, cs, i+1)
		b2, p2 := c.l2Row(t, cs, i+2)
		b3, p3 := c.l2Row(t, cs, i+3)
		if p0 && p1 && p2 && p3 {
			continue
		}
		r0 := data[i*w : i*w+w]
		r1 := data[(i+1)*w : (i+1)*w+w]
		r2 := data[(i+2)*w : (i+2)*w+w]
		r3 := data[(i+3)*w : (i+3)*w+w]
		var s0, s1, s2, s3 float64
		dead := false
		for j := 0; j < w; {
			end := j + scanCheckStep
			if end > w {
				end = w
			}
			for ; j < end; j++ {
				x := v[j]
				s0 += math.Abs(r0[j] - x)
				s1 += math.Abs(r1[j] - x)
				s2 += math.Abs(r2[j] - x)
				s3 += math.Abs(r3[j] - x)
			}
			if j < w &&
				(p0 || s0 > b0) && (p1 || s1 > b1) &&
				(p2 || s2 > b2) && (p3 || s3 > b3) {
				dead = true
				break
			}
		}
		if dead {
			continue
		}
		switch {
		case !p0 && s0 <= b0:
			return i
		case !p1 && s1 <= b1:
			return i + 1
		case !p2 && s2 <= b2:
			return i + 2
		case !p3 && s3 <= b3:
			return i + 3
		}
	}
	for ; i < n; i++ {
		b, p := c.l2Row(t, cs, i)
		if p {
			continue
		}
		row := data[i*w : i*w+w]
		var s float64
		dead := false
		for j := 0; j < w; {
			end := j + scanCheckStep
			if end > w {
				end = w
			}
			for ; j < end; j++ {
				s += math.Abs(row[j] - v[j])
			}
			if j < w && s > b {
				dead = true
				break
			}
		}
		if !dead && s <= b {
			return i
		}
	}
	return -1
}

// scanLinf is the Chebyshev (m = 0) kernel: the distance is the largest
// per-coordinate difference, an exact max that tolerates any evaluation
// order, and the norm column holds each row's max-abs. The max update
// uses the builtin max — branchless on amd64, where a `d > m`
// comparison mispredicts its way through random data — which agrees
// with the comparison on every finite input and differs only on NaN
// coordinates, unreachable from the engine's integer-time measurements.
// The checkpoint skips a group once every unpruned row's running max is
// already past its bound — the max only grows, so the skip is
// decision-neutral.
func (c *Class) scanLinf(t float64, cs *RepState) int {
	v := cs.Vec
	w := c.width
	n := len(c.norm)
	data := c.data
	i := 0
	for ; i+4 <= n; i += 4 {
		b0, p0 := c.l2Row(t, cs, i)
		b1, p1 := c.l2Row(t, cs, i+1)
		b2, p2 := c.l2Row(t, cs, i+2)
		b3, p3 := c.l2Row(t, cs, i+3)
		if p0 && p1 && p2 && p3 {
			continue
		}
		r0 := data[i*w : i*w+w]
		r1 := data[(i+1)*w : (i+1)*w+w]
		r2 := data[(i+2)*w : (i+2)*w+w]
		r3 := data[(i+3)*w : (i+3)*w+w]
		var m0, m1, m2, m3 float64
		dead := false
		for j := 0; j < w; {
			end := j + scanCheckStep
			if end > w {
				end = w
			}
			for ; j < end; j++ {
				x := v[j]
				m0 = max(m0, math.Abs(r0[j]-x))
				m1 = max(m1, math.Abs(r1[j]-x))
				m2 = max(m2, math.Abs(r2[j]-x))
				m3 = max(m3, math.Abs(r3[j]-x))
			}
			if j < w &&
				(p0 || m0 > b0) && (p1 || m1 > b1) &&
				(p2 || m2 > b2) && (p3 || m3 > b3) {
				dead = true
				break
			}
		}
		if dead {
			continue
		}
		switch {
		case !p0 && m0 <= b0:
			return i
		case !p1 && m1 <= b1:
			return i + 1
		case !p2 && m2 <= b2:
			return i + 2
		case !p3 && m3 <= b3:
			return i + 3
		}
	}
	for ; i < n; i++ {
		b, p := c.l2Row(t, cs, i)
		if p {
			continue
		}
		row := data[i*w : i*w+w]
		var m float64
		dead := false
		for j := 0; j < w; {
			end := j + scanCheckStep
			if end > w {
				end = w
			}
			for ; j < end; j++ {
				m = max(m, math.Abs(row[j]-v[j]))
			}
			if j < w && m > b {
				dead = true
				break
			}
		}
		if !dead && m <= b {
			return i
		}
	}
	return -1
}

// scanLm is the general order-m kernel (m >= 3): each row accumulates
// |d|^m with math.Pow in coordinate order, then takes the m-th root.
func (c *Class) scanLm(m int, t float64, cs *RepState) int {
	v := cs.Vec
	w := c.width
	n := len(c.norm)
	data := c.data
	fm := float64(m)
	inv := 1 / fm
	i := 0
	for ; i+4 <= n; i += 4 {
		b0, p0 := c.l2Row(t, cs, i)
		b1, p1 := c.l2Row(t, cs, i+1)
		b2, p2 := c.l2Row(t, cs, i+2)
		b3, p3 := c.l2Row(t, cs, i+3)
		if p0 && p1 && p2 && p3 {
			continue
		}
		r0 := data[i*w : i*w+w]
		r1 := data[(i+1)*w : (i+1)*w+w]
		r2 := data[(i+2)*w : (i+2)*w+w]
		r3 := data[(i+3)*w : (i+3)*w+w]
		var s0, s1, s2, s3 float64
		for j := 0; j < w; j++ {
			x := v[j]
			s0 += math.Pow(math.Abs(r0[j]-x), fm)
			s1 += math.Pow(math.Abs(r1[j]-x), fm)
			s2 += math.Pow(math.Abs(r2[j]-x), fm)
			s3 += math.Pow(math.Abs(r3[j]-x), fm)
		}
		switch {
		case !p0 && math.Pow(s0, inv) <= b0:
			return i
		case !p1 && math.Pow(s1, inv) <= b1:
			return i + 1
		case !p2 && math.Pow(s2, inv) <= b2:
			return i + 2
		case !p3 && math.Pow(s3, inv) <= b3:
			return i + 3
		}
	}
	for ; i < n; i++ {
		b, p := c.l2Row(t, cs, i)
		if p {
			continue
		}
		row := data[i*w : i*w+w]
		var s float64
		for j := 0; j < w; j++ {
			s += math.Pow(math.Abs(row[j]-v[j]), fm)
		}
		if math.Pow(s, inv) <= b {
			return i
		}
	}
	return -1
}

// scanRelDiff returns the first row matching cs under the relDiff rule:
// every paired measurement within relative threshold t. A match forces
// every pair within a factor of (1−t), in particular at the coordinate
// holding either vector's max-abs, so rows whose max-abs falls outside
// that factor of the candidate's are pruned. factor ≤ 0 (t ≥ 1) disables
// pruning, as does a degenerate negative threshold, where factor > 1
// would wrongly prune the identical vectors the pair test still accepts.
func (c *Class) scanRelDiff(t float64, cs *RepState) int {
	factor := 1 - t - pruneMargin
	if t < 0 {
		factor = 0
	}
	v := cs.Vec
	w := c.width
	cm := cs.MaxAbs
	for i, n := 0, len(c.maxAbs); i < n; i++ {
		rm := c.maxAbs[i]
		if factor > 0 && (cm < factor*rm || rm < factor*cm) {
			continue
		}
		if relDiffRow(t, c.data[i*w:i*w+w], v) {
			return i
		}
	}
	return -1
}

// relDiffRow reports whether every paired measurement of va and vb is
// within relative threshold t (equal pairs — including the zero padding —
// always pass).
func relDiffRow(t float64, va, vb []float64) bool {
	j := 0
	for ; j+4 <= len(va); j += 4 {
		if !relDiffPair(t, va[j], vb[j]) ||
			!relDiffPair(t, va[j+1], vb[j+1]) ||
			!relDiffPair(t, va[j+2], vb[j+2]) ||
			!relDiffPair(t, va[j+3], vb[j+3]) {
			return false
		}
	}
	for ; j < len(va); j++ {
		if !relDiffPair(t, va[j], vb[j]) {
			return false
		}
	}
	return true
}

func relDiffPair(t, x, y float64) bool {
	d := math.Abs(x - y)
	if d == 0 {
		return true
	}
	m := math.Max(math.Abs(x), math.Abs(y))
	return d/m <= t
}

// scanAbsDiff returns the first row within per-measurement absolute
// threshold t of cs. Rows are pruned by the sup-norm reverse triangle
// inequality: the max-abs gap bounds the largest per-measurement
// difference from below.
func (c *Class) scanAbsDiff(t float64, cs *RepState) int {
	v := cs.Vec
	w := c.width
	cm := cs.MaxAbs
	for i, n := 0, len(c.maxAbs); i < n; i++ {
		if pruned(math.Abs(c.maxAbs[i]-cm), t) {
			continue
		}
		if absDiffRow(t, c.data[i*w:i*w+w], v) {
			return i
		}
	}
	return -1
}

// absDiffRow reports whether every paired measurement differs by at most
// t (the zero padding contributes |0−0| = 0, which passes for t ≥ 0 and
// is no stricter than the real coordinates for degenerate t < 0).
func absDiffRow(t float64, va, vb []float64) bool {
	j := 0
	for ; j+4 <= len(va); j += 4 {
		if math.Abs(va[j]-vb[j]) > t ||
			math.Abs(va[j+1]-vb[j+1]) > t ||
			math.Abs(va[j+2]-vb[j+2]) > t ||
			math.Abs(va[j+3]-vb[j+3]) > t {
			return false
		}
	}
	for ; j < len(va); j++ {
		if math.Abs(va[j]-vb[j]) > t {
			return false
		}
	}
	return true
}
