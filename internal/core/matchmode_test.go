package core

import (
	"testing"
)

func runMode(mk func() Policy, mode MatchMode, n int) RankReduced {
	rr := &RankReducer{m: NewMatcherMode(mk(), mode)}
	for _, s := range genSegments(n) {
		rr.Feed(s.Clone())
	}
	return rr.Finish()
}

// TestUnsupportedModeFallsBackExact requires every policy under the
// deprecated MatchModeAuto to produce byte-identical output to exact
// mode.
func TestUnsupportedModeFallsBackExact(t *testing.T) {
	cases := []struct {
		name string
		mk   func() Policy
		mode MatchMode
	}{
		{"relDiff/auto", func() Policy { return NewRelDiff(0.2) }, MatchModeAuto},
		{"iter_k/auto", func() Policy { p, _ := NewIterK(10); return p }, MatchModeAuto},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			exOut := runMode(tc.mk, MatchModeExact, 2000)
			out := runMode(tc.mk, tc.mode, 2000)
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
