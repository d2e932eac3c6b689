// Package wavelet implements the two discrete wavelet transforms the paper
// uses as segment-similarity bases: the plain average transform (pairwise
// averages and differences, iterated on the trend half) and the Haar
// transform (the same recursion with averages and differences scaled by
// √2, which preserves the Euclidean norm).
package wavelet

import "math"

// NextPow2 returns the smallest power of two >= n (and >= 1).
func NextPow2(n int) int {
	if n <= 1 {
		return 1
	}
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// Pad returns v zero-padded to the next power-of-two length. The result is
// always a fresh slice.
func Pad(v []float64) []float64 {
	n := NextPow2(len(v))
	out := make([]float64, n)
	copy(out, v)
	return out
}

// step performs one level of the transform on v[:n], writing trends to the
// first n/2 slots and fluctuations to the second n/2 via the scratch
// buffer tmp (len >= n), with the given scale factor applied to both
// (1 for the average transform, √2⁻¹… no: Haar uses (a+b)/√2 and
// (a−b)/√2, i.e. scale = 1/√2 relative to sum, which equals the pairwise
// average multiplied by √2).
func step(v, tmp []float64, n int, scale float64) {
	half := n / 2
	for i := 0; i < half; i++ {
		a, b := v[2*i], v[2*i+1]
		tmp[i] = (a + b) / 2 * scale
		tmp[half+i] = (a - b) / 2 * scale
	}
	copy(v[:n], tmp[:n])
}

// transform runs the full multi-level decomposition in place through one
// shared scratch buffer. v must have power-of-two length. At each level
// the trend half is decomposed again, as in the paper's Figure 3.
func transform(v []float64, scale float64) {
	if len(v) < 2 {
		return
	}
	transformScratch(v, make([]float64, len(v)), scale)
}

// transformScratch is transform with a caller-owned scratch buffer (len
// >= len(v)), for hot paths that must not allocate.
func transformScratch(v, tmp []float64, scale float64) {
	if len(v) < 2 {
		return
	}
	for n := len(v); n >= 2; n /= 2 {
		step(v, tmp, n, scale)
	}
}

// Average returns the multi-level average wavelet transform of v. The
// input is zero-padded to a power of two; v itself is not modified.
func Average(v []float64) []float64 {
	out := Pad(v)
	transform(out, 1)
	return out
}

// Haar returns the multi-level Haar wavelet transform of v: the average
// transform with every level's averages and differences multiplied by √2.
// The input is zero-padded to a power of two; v itself is not modified.
func Haar(v []float64) []float64 {
	out := Pad(v)
	transform(out, math.Sqrt2)
	return out
}

// AverageInPlace applies the multi-level average transform to v, which
// must already have power-of-two length. It is the allocation-lean form
// of Average for callers that own a padded buffer.
func AverageInPlace(v []float64) { transform(v, 1) }

// HaarInPlace applies the multi-level Haar transform to v, which must
// already have power-of-two length.
func HaarInPlace(v []float64) { transform(v, math.Sqrt2) }

// AverageInPlaceScratch is AverageInPlace with a caller-owned scratch
// buffer of len >= len(v), so repeated transforms can run allocation-free.
func AverageInPlaceScratch(v, tmp []float64) { transformScratch(v, tmp, 1) }

// HaarInPlaceScratch is HaarInPlace with a caller-owned scratch buffer of
// len >= len(v).
func HaarInPlaceScratch(v, tmp []float64) { transformScratch(v, tmp, math.Sqrt2) }

// Euclidean returns the Euclidean (L2) distance between equal-length
// vectors a and b. It panics if the lengths differ.
func Euclidean(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("wavelet: Euclidean on vectors of different length")
	}
	var sum float64
	for i := range a {
		d := a[i] - b[i]
		sum += float64(d * d)
	}
	return math.Sqrt(sum)
}

// MaxAbs returns the maximum absolute value over the concatenation of a
// and b, which the paper uses to scale the wavelet match threshold.
func MaxAbs(a, b []float64) float64 {
	var m float64
	for _, x := range a {
		if ax := math.Abs(x); ax > m {
			m = ax
		}
	}
	for _, x := range b {
		if ax := math.Abs(x); ax > m {
			m = ax
		}
	}
	return m
}
