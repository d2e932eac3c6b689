package core

import (
	"testing"
)

// modeMethods are the pairwise methods with a VP-tree (vpIndexer), with
// representative thresholds.
var modeMethods = []struct {
	name string
	mk   func() Policy
}{
	{"absDiff", func() Policy { return NewAbsDiff(1000) }},
	{"manhattan", func() Policy { return NewManhattan(0.4) }},
	{"euclidean", func() Policy { return NewEuclidean(0.2) }},
	{"chebyshev", func() Policy { return NewChebyshev(0.2) }},
	{"minkowski3", func() Policy { p, _ := NewMinkowski(3, 0.2); return p }},
	{"avgWave", func() Policy { return NewAvgWave(0.2) }},
	{"haarWave", func() Policy { return NewHaarWave(0.2) }},
}

func runMode(mk func() Policy, mode MatchMode, n int) (*RankReducer, RankReduced) {
	rr := NewRankReducerMode(0, mk(), mode)
	for _, s := range genSegments(n) {
		rr.Feed(s.Clone())
	}
	return rr, rr.Finish()
}

// TestVPTreeModeMatchesExactDecisions holds MatchModeVPTree to the
// documented guarantee: the tree search finds a match exactly when the
// exact scan does, so the kept representatives, the execution start
// times, and all three counters are identical to exact mode — only which
// representative an execution references may differ.
func TestVPTreeModeMatchesExactDecisions(t *testing.T) {
	for _, m := range modeMethods {
		m := m
		t.Run(m.name, func(t *testing.T) {
			exRed, exOut := runMode(m.mk, MatchModeExact, 3000)
			vpRed, vpOut := runMode(m.mk, MatchModeVPTree, 3000)
			if len(vpOut.Stored) != len(exOut.Stored) {
				t.Fatalf("stored %d, exact stored %d", len(vpOut.Stored), len(exOut.Stored))
			}
			for i := range exOut.Stored {
				if !exOut.Stored[i].Comparable(vpOut.Stored[i]) || exOut.Stored[i].End != vpOut.Stored[i].End {
					t.Fatalf("stored %d differs from exact mode", i)
				}
			}
			if len(vpOut.Execs) != len(exOut.Execs) {
				t.Fatalf("execs %d, exact %d", len(vpOut.Execs), len(exOut.Execs))
			}
			for i := range exOut.Execs {
				if vpOut.Execs[i].Start != exOut.Execs[i].Start {
					t.Fatalf("exec %d start %d, exact %d", i, vpOut.Execs[i].Start, exOut.Execs[i].Start)
				}
				if id := vpOut.Execs[i].ID; id < 0 || id >= len(vpOut.Stored) {
					t.Fatalf("exec %d references stored %d of %d", i, id, len(vpOut.Stored))
				}
			}
			if vpRed.TotalSegments() != exRed.TotalSegments() ||
				vpRed.Matches() != exRed.Matches() ||
				vpRed.PossibleMatches() != exRed.PossibleMatches() {
				t.Fatalf("counters (%d,%d,%d), exact (%d,%d,%d)",
					vpRed.TotalSegments(), vpRed.Matches(), vpRed.PossibleMatches(),
					exRed.TotalSegments(), exRed.Matches(), exRed.PossibleMatches())
			}
		})
	}
}

// TestUnsupportedModeFallsBackExact requires policies with no index for
// a mode — and every policy under the deprecated MatchModeAuto — to
// produce byte-identical output to exact mode under it.
func TestUnsupportedModeFallsBackExact(t *testing.T) {
	cases := []struct {
		name string
		mk   func() Policy
		mode MatchMode
	}{
		{"relDiff/vptree", func() Policy { return NewRelDiff(0.2) }, MatchModeVPTree},
		{"relDiff/auto", func() Policy { return NewRelDiff(0.2) }, MatchModeAuto},
		{"iter_k/auto", func() Policy { p, _ := NewIterK(10); return p }, MatchModeAuto},
		{"sample_n/vptree", func() Policy { p, _ := NewSampleN(3); return p }, MatchModeVPTree},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			_, exOut := runMode(tc.mk, MatchModeExact, 2000)
			_, out := runMode(tc.mk, tc.mode, 2000)
			if len(out.Stored) != len(exOut.Stored) || len(out.Execs) != len(exOut.Execs) {
				t.Fatalf("shape differs: stored %d/%d execs %d/%d",
					len(out.Stored), len(exOut.Stored), len(out.Execs), len(exOut.Execs))
			}
			for i := range exOut.Execs {
				if out.Execs[i] != exOut.Execs[i] {
					t.Fatalf("exec %d: %+v vs exact %+v", i, out.Execs[i], exOut.Execs[i])
				}
			}
		})
	}
}
