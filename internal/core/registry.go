package core

import (
	"fmt"
	"math"
	"sort"
)

// MethodNames lists the nine similarity methods the paper evaluates, in
// its presentation order.
var MethodNames = []string{
	"relDiff", "absDiff", "manhattan", "euclidean", "chebyshev",
	"iter_k", "iter_avg", "avgWave", "haarWave",
}

// DefaultThresholds holds the best-per-method thresholds selected by the
// paper's threshold study (§5.1/§5.2): relDiff 0.8, absDiff 10³ time
// units, Manhattan 0.4, Euclidean 0.2, Chebyshev 0.2, iter_k k=10,
// avgWave 0.2, haarWave 0.2. iter_avg takes no threshold (recorded as 0).
var DefaultThresholds = map[string]float64{
	"relDiff":   0.8,
	"absDiff":   1000,
	"manhattan": 0.4,
	"euclidean": 0.2,
	"chebyshev": 0.2,
	"iter_k":    10,
	"iter_avg":  0,
	"avgWave":   0.2,
	"haarWave":  0.2,
}

// ThresholdSweep returns the per-method threshold grid used by the
// paper's threshold study: {0.1,0.2,0.4,0.6,0.8,1.0} for the relative
// distance and wavelet methods, powers of ten 10¹..10⁶ for absDiff, and
// {1,10,50,100,500,1000} for iter_k. iter_avg has no sweep (nil).
func ThresholdSweep(method string) []float64 {
	switch method {
	case "relDiff", "manhattan", "euclidean", "chebyshev", "avgWave", "haarWave":
		return []float64{0.1, 0.2, 0.4, 0.6, 0.8, 1.0}
	case "absDiff":
		return []float64{1e1, 1e2, 1e3, 1e4, 1e5, 1e6}
	case "iter_k":
		return []float64{1, 10, 50, 100, 500, 1000}
	case "iter_avg":
		return nil
	default:
		return nil
	}
}

// NewMethod constructs the named similarity policy with the given
// threshold (ignored for iter_avg; truncated to int for iter_k). A NaN,
// infinite or negative threshold is rejected for every method.
func NewMethod(name string, threshold float64) (Policy, error) {
	if math.IsNaN(threshold) || math.IsInf(threshold, 0) {
		return nil, fmt.Errorf("core: %s threshold %v is not finite", name, threshold)
	}
	if threshold < 0 {
		return nil, fmt.Errorf("core: %s threshold %v is negative", name, threshold)
	}
	switch name {
	case "relDiff":
		return NewRelDiff(threshold), nil
	case "absDiff":
		return NewAbsDiff(threshold), nil
	case "manhattan":
		return NewManhattan(threshold), nil
	case "euclidean":
		return NewEuclidean(threshold), nil
	case "chebyshev":
		return NewChebyshev(threshold), nil
	case "iter_k":
		return NewIterK(int(threshold))
	case "iter_avg":
		return NewIterAvg(), nil
	case "avgWave":
		return NewAvgWave(threshold), nil
	case "haarWave":
		return NewHaarWave(threshold), nil
	case "sample_n":
		// Extension beyond the paper's nine methods (its §6 future work).
		return NewSampleN(int(threshold))
	default:
		known := append([]string(nil), MethodNames...)
		sort.Strings(known)
		return nil, fmt.Errorf("core: unknown method %q (known: %v)", name, known)
	}
}

// DefaultMethod constructs the named policy at its paper-default
// threshold.
func DefaultMethod(name string) (Policy, error) {
	t, ok := DefaultThresholds[name]
	if !ok {
		return nil, fmt.Errorf("core: unknown method %q", name)
	}
	return NewMethod(name, t)
}
