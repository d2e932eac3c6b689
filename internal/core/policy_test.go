package core

import (
	"testing"

	"repro/internal/segment"
	"repro/internal/trace"
)

// The paper's Figure 2 segments. Measurement vectors:
//
//	s0 = (50, 1, 20, 21, 49)
//	s1 = (51, 1, 40, 41, 50)
//	s2 = (49, 1, 17, 18, 48)
//
// Every worked example in §3.2 is expressed over these three segments;
// the tests below pin our implementation to the paper's arithmetic.
func figure2Segment(end, wEnter, wExit, aEnter, aExit trace.Time) *segment.Segment {
	return &segment.Segment{
		Context: "main.1",
		End:     end,
		Weight:  1,
		Events: []trace.Event{
			{Name: "do_work", Kind: trace.KindCompute, Enter: wEnter, Exit: wExit, Peer: trace.NoPeer, Root: trace.NoPeer},
			{Name: "MPI_Allgather", Kind: trace.KindAllgather, Enter: aEnter, Exit: aExit, Peer: trace.NoPeer, Bytes: 8, Root: -1},
		},
	}
}

func s0() *segment.Segment { return figure2Segment(50, 1, 20, 21, 49) }
func s1() *segment.Segment { return figure2Segment(51, 1, 40, 41, 50) }
func s2() *segment.Segment { return figure2Segment(49, 1, 17, 18, 48) }

// scanMatch runs a policy over stored in collection order through a
// hand-built class, preparing representative and candidate state exactly
// as the matcher would.
func scanMatch(p Policy, stored []*segment.Segment, cand *segment.Segment) int {
	cls := &Class{}
	var rs RepState
	for i, s := range stored {
		p.Prepare(s, &rs)
		cls.add(s, i, &rs)
	}
	var cs RepState
	p.Prepare(cand, &cs)
	return p.Match(cls, cand, &cs)
}

// matchOne runs a policy against a single stored candidate.
func matchOne(p Policy, stored, cand *segment.Segment) bool {
	return scanMatch(p, []*segment.Segment{stored}, cand) == 0
}

// TestRelDiffPaperExample: at threshold 0.5, s2 does not match s1
// (do_work exits 17 vs 40 → 0.58) but matches s0 (all ≤ 0.15).
func TestRelDiffPaperExample(t *testing.T) {
	p := NewRelDiff(0.5)
	if matchOne(p, s1(), s2()) {
		t.Error("relDiff(0.5): s2 must not match s1 (rel diff 0.58)")
	}
	if !matchOne(p, s0(), s2()) {
		t.Error("relDiff(0.5): s2 must match s0 (max rel diff 0.15)")
	}
}

// TestRelDiffTimestampBias pins the paper's observation: starts at 1 vs 2
// differ by 0.5 relatively, 100 vs 125 only by 0.2, although the absolute
// gap is 25× larger.
func TestRelDiffTimestampBias(t *testing.T) {
	early1 := figure2Segment(200, 1, 150, 151, 199)
	early2 := figure2Segment(200, 2, 150, 151, 199)
	late1 := figure2Segment(200, 100, 150, 151, 199)
	late2 := figure2Segment(200, 125, 150, 151, 199)
	p := NewRelDiff(0.25)
	if matchOne(p, early1, early2) {
		t.Error("relDiff(0.25): starts 1 vs 2 must fail (0.5)")
	}
	if !matchOne(p, late1, late2) {
		t.Error("relDiff(0.25): starts 100 vs 125 must pass (0.2)")
	}
}

// TestAbsDiffPaperExample: at threshold 20, s2 does not match s1 (end
// times 23 apart) but matches s0 (no difference above 3).
func TestAbsDiffPaperExample(t *testing.T) {
	p := NewAbsDiff(20)
	if matchOne(p, s1(), s2()) {
		t.Error("absDiff(20): s2 must not match s1 (23 apart)")
	}
	if !matchOne(p, s0(), s2()) {
		t.Error("absDiff(20): s2 must match s0 (max 3 apart)")
	}
}

// TestMinkowskiPaperExample pins the paper's distances: s2 vs s1 gives
// Manhattan 50, Euclidean 32.6, Chebyshev 23 — all above 0.2·51 = 10.2;
// s0 vs s2 gives 8, 4.5, 3 — all within 0.2·50 = 10.
func TestMinkowskiPaperExample(t *testing.T) {
	for _, tc := range []struct {
		name string
		mk   func(float64) Policy
	}{
		{"manhattan", NewManhattan},
		{"euclidean", NewEuclidean},
		{"chebyshev", NewChebyshev},
	} {
		p := tc.mk(0.2)
		if matchOne(p, s1(), s2()) {
			t.Errorf("%s(0.2): s2 must not match s1", tc.name)
		}
		if !matchOne(p, s0(), s2()) {
			t.Errorf("%s(0.2): s2 must match s0", tc.name)
		}
	}
}

// TestMinkowskiDistancesExact verifies the raw distance arithmetic via
// threshold bisection: the paper gives d(s2,s1) = 50, 32.6, 23 with
// max measurement 51.
func TestMinkowskiDistancesExact(t *testing.T) {
	cases := []struct {
		name string
		mk   func(float64) Policy
		dist float64
	}{
		{"manhattan", NewManhattan, 50},
		{"euclidean", NewEuclidean, 32.65}, // √1066
		{"chebyshev", NewChebyshev, 23},
	}
	const maxVal = 51.0
	for _, c := range cases {
		just := c.mk(c.dist/maxVal + 0.001)
		if !matchOne(just, s1(), s2()) {
			t.Errorf("%s: threshold just above d/max must match", c.name)
		}
		below := c.mk(c.dist/maxVal - 0.001)
		if matchOne(below, s1(), s2()) {
			t.Errorf("%s: threshold just below d/max must not match", c.name)
		}
	}
}

// TestWaveletPaperExample pins Figure 3: the average-transform distance
// between s0 and s2 is √3.75 ≈ 1.94, within 0.2 × the largest transformed
// value, so they match; s1 vs s2 must not match at 0.2.
func TestWaveletPaperExample(t *testing.T) {
	for _, tc := range []struct {
		name string
		mk   func(float64) Policy
	}{
		{"avgWave", NewAvgWave},
		{"haarWave", NewHaarWave},
	} {
		p := tc.mk(0.2)
		if !matchOne(p, s0(), s2()) {
			t.Errorf("%s(0.2): s2 must match s0 (paper Figure 3)", tc.name)
		}
		if matchOne(p, s1(), s2()) {
			t.Errorf("%s(0.2): s2 must not match s1", tc.name)
		}
	}
}

// TestWaveletTrendValues verifies the level-2 trends of the paper's
// Figure 3 walkthrough for s2's stamp vector: (9, 24.25).
func TestWaveletTrendValues(t *testing.T) {
	// Reconstruct the intermediate transform by hand here rather than
	// exporting internals: the stamp vector of s2 is
	// (0, 1, 17, 18, 48, 49, 0, 0); after one averaging level the trends
	// are (0.5, 17.5, 48.5, 0); after two, (9, 24.25) — the values the
	// paper quotes.
	v := []float64{0, 1, 17, 18, 48, 49, 0, 0}
	l1 := []float64{(v[0] + v[1]) / 2, (v[2] + v[3]) / 2, (v[4] + v[5]) / 2, (v[6] + v[7]) / 2}
	l2 := []float64{(l1[0] + l1[1]) / 2, (l1[2] + l1[3]) / 2}
	if l2[0] != 9 || l2[1] != 24.25 {
		t.Errorf("level-2 trends = %v, want (9, 24.25)", l2)
	}
}

// TestDistancePoliciesMatchFirstFit: Match must return the index of the
// first acceptable stored representative.
func TestDistancePoliciesMatchFirstFit(t *testing.T) {
	p := NewAbsDiff(20)
	stored := []*segment.Segment{s1(), s0()} // s2 fails s1, matches s0
	if got := scanMatch(p, stored, s2()); got != 1 {
		t.Errorf("Match = %d, want 1", got)
	}
	if got := scanMatch(p, nil, s2()); got != -1 {
		t.Errorf("Match with no candidates = %d, want -1", got)
	}
}

// TestZeroMeasurements: two all-zero segments are identical under every
// distance policy (the relDiff 0/0 case).
func TestZeroMeasurements(t *testing.T) {
	mk := func() *segment.Segment {
		return &segment.Segment{Context: "c", End: 0, Weight: 1,
			Events: []trace.Event{{Name: "w", Kind: trace.KindCompute, Peer: trace.NoPeer, Root: trace.NoPeer}}}
	}
	for _, p := range []Policy{
		NewRelDiff(0.1), NewAbsDiff(1), NewManhattan(0.1), NewEuclidean(0.1),
		NewChebyshev(0.1), NewAvgWave(0.1), NewHaarWave(0.1),
	} {
		if !matchOne(p, mk(), mk()) {
			t.Errorf("%s: identical zero segments must match", p.Name())
		}
	}
}

// TestRelDiffDegenerateThresholds: relDiffMatch accepts identical
// vectors at any threshold (every zero difference is skipped), so the
// max-abs pruning must never reject an exact copy — including at the
// degenerate thresholds 0 and below, where the prune factor would
// otherwise exceed 1.
func TestRelDiffDegenerateThresholds(t *testing.T) {
	for _, th := range []float64{-1, -0.1, 0, 0.1} {
		p := NewRelDiff(th)
		if !matchOne(p, s0(), s0()) {
			t.Errorf("relDiff(%v): identical segments must match", th)
		}
	}
}

// TestIdenticalSegmentsAlwaysMatch: every distance policy must accept an
// exact copy at any positive threshold.
func TestIdenticalSegmentsAlwaysMatch(t *testing.T) {
	for _, p := range []Policy{
		NewRelDiff(0.01), NewAbsDiff(0.5), NewManhattan(0.01), NewEuclidean(0.01),
		NewChebyshev(0.01), NewAvgWave(0.01), NewHaarWave(0.01),
	} {
		if !matchOne(p, s0(), s0()) {
			t.Errorf("%s: identical segments must match", p.Name())
		}
	}
}
