// Package quartile computes the median and quartiles the benchmark tools
// (cmd/benchpair, cmd/benchsum) report.
package quartile

import "slices"

// Of returns the first quartile, the median and the third quartile of
// xs, interpolating linearly between the closest ranks. xs must not be
// empty; it is not modified.
func Of(xs []float64) (q1, median, q3 float64) {
	s := slices.Sorted(slices.Values(xs))
	at := func(p float64) float64 {
		// float64() rounds each product, so no architecture fuses it
		// into a multiply-add.
		pos := float64(p * float64(len(s)-1))
		i := int(pos)
		if i+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[i] + float64((pos-float64(i))*(s[i+1]-s[i]))
	}
	return at(0.25), at(0.5), at(0.75)
}
