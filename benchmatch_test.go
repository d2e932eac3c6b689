// Matcher-layer benchmarks over the shared matchbench workload: one
// pattern class whose identical measurement norms defeat the exact
// scan's lower-bound pruning, the matcher's worst case. They keep the
// per-method scan cost in the ordinary `go test -bench` surface (and
// CI's one-iteration bench smoke).
package repro

import (
	"testing"

	"repro/internal/core"
	"repro/internal/matchbench"
	"repro/internal/segment"
)

const (
	benchMatchClasses    = 256
	benchMatchCandidates = 512
)

// warmMatchBench returns a matcher with the benchmark class fully
// inserted, plus the candidate set the scan loop draws from.
func warmMatchBench(b *testing.B, method string) (*core.Matcher, []*segment.Segment) {
	b.Helper()
	p, err := core.DefaultMethod(method)
	if err != nil {
		b.Fatal(err)
	}
	m := core.NewMatcher(p)
	id := 0
	for _, r := range matchbench.Reps(benchMatchClasses) {
		cls, idx, cs := m.Scan(r)
		if idx >= 0 {
			m.Absorb(cls, idx, r)
			continue
		}
		kept := r.Clone()
		kept.Start = 0
		m.Insert(cls, kept, id, cs)
		id++
	}
	return m, matchbench.Candidates(benchMatchClasses, benchMatchCandidates)
}

// BenchmarkMatcherScan measures Matcher.Scan per method against the
// warm worst-case class.
func BenchmarkMatcherScan(b *testing.B) {
	for _, method := range core.MethodNames {
		b.Run(method, func(b *testing.B) {
			m, cands := warmMatchBench(b, method)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Scan(cands[i%len(cands)])
			}
		})
	}
}

// BenchmarkMatcherReduce measures the end-to-end stream reduction
// (insert the centers, then match every candidate) for the two wavelet
// methods and euclidean.
func BenchmarkMatcherReduce(b *testing.B) {
	stream := matchbench.Stream(benchMatchClasses, benchMatchCandidates)
	for _, method := range []string{"avgWave", "haarWave", "euclidean"} {
		b.Run(method, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p, err := core.DefaultMethod(method)
				if err != nil {
					b.Fatal(err)
				}
				rr := core.NewRankReducer(0, p)
				for _, s := range stream {
					rr.Feed(s)
				}
			}
		})
	}
}
