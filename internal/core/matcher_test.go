package core

import (
	"math"
	"slices"
	"testing"

	"repro/internal/segment"
	"repro/internal/trace"
	"repro/internal/wavelet"
)

// ---------------------------------------------------------------------
// Brute-force reference engine.
//
// refFeed reproduces the pre-matcher reduction loop verbatim: a
// map[Signature][]int class list, per-scan Comparable re-filtering, and
// per-comparison recomputation of measurement-derived data (wavelet
// transforms, Minkowski norms). It pins the indexed matcher — prepared
// state, comparability classes, lower-bound pruning — to byte-identical
// decisions.
// ---------------------------------------------------------------------

// refMatch is the old stateless pairwise predicate table: name → match
// function over (threshold, stored, cand).
func refMatch(name string, threshold float64, a, b *segment.Segment) bool {
	va, vb := a.Measurements(nil), b.Measurements(nil)
	switch name {
	case "relDiff":
		return refRelDiff(threshold, va, vb)
	case "absDiff":
		return refAbsDiff(threshold, va, vb)
	case "manhattan":
		return refMinkowski(threshold, 1, va, vb)
	case "euclidean":
		return refMinkowski(threshold, 2, va, vb)
	case "chebyshev":
		return refMinkowski(threshold, 0, va, vb)
	case "avgWave":
		return refWave(threshold, false, a, b)
	case "haarWave":
		return refWave(threshold, true, a, b)
	}
	panic("refMatch: unknown method " + name)
}

// refRelDiff and refAbsDiff are the pre-matcher (and pre-slab-kernel)
// pairwise predicates, retained verbatim as the decision reference the
// fused batch kernels are pinned to.
func refRelDiff(t float64, va, vb []float64) bool {
	for i := range va {
		x, y := va[i], vb[i]
		d := math.Abs(x - y)
		if d == 0 {
			continue
		}
		m := math.Max(math.Abs(x), math.Abs(y))
		if d/m > t {
			return false
		}
	}
	return true
}

func refAbsDiff(t float64, va, vb []float64) bool {
	for i := range va {
		if math.Abs(va[i]-vb[i]) > t {
			return false
		}
	}
	return true
}

// refPadStamps lays a measurement vector [end, stamps...] out as the
// zero-padded stamp vector [0, stamps..., end, 0...] of length n, the
// pre-matcher engine's transform input layout.
func refPadStamps(meas []float64, n int) []float64 {
	p := make([]float64, n)
	copy(p[1:], meas[1:])
	p[len(meas)] = meas[0]
	return p
}

// refMinkowski is the pre-matcher minkowskiMatch: distance and the
// shared max value accumulated in one interleaved pass.
func refMinkowski(t float64, m int, va, vb []float64) bool {
	var dist, maxVal float64
	for i := range va {
		if av := math.Abs(va[i]); av > maxVal {
			maxVal = av
		}
		if bv := math.Abs(vb[i]); bv > maxVal {
			maxVal = bv
		}
		d := math.Abs(va[i] - vb[i])
		switch m {
		case 0:
			if d > dist {
				dist = d
			}
		case 1:
			dist += d
		case 2:
			dist += d * d
		}
	}
	if m == 2 {
		dist = math.Sqrt(dist)
	}
	return dist <= t*maxVal
}

// refWave is the pre-matcher waveMatch: both transforms recomputed per
// comparison, padded to the larger of the two power-of-two lengths.
func refWave(t float64, haar bool, a, b *segment.Segment) bool {
	ma, mb := a.Measurements(nil), b.Measurements(nil)
	n := wavelet.NextPow2(len(ma) + 1)
	if m := wavelet.NextPow2(len(mb) + 1); m > n {
		n = m
	}
	pa := refPadStamps(ma, n)
	pb := refPadStamps(mb, n)
	var ta, tb []float64
	if haar {
		ta, tb = wavelet.Haar(pa), wavelet.Haar(pb)
	} else {
		ta, tb = wavelet.Average(pa), wavelet.Average(pb)
	}
	return wavelet.Euclidean(ta, tb) <= t*wavelet.MaxAbs(ta, tb)
}

// refReducer is the pre-matcher per-rank reduction state.
type refReducer struct {
	method    string
	threshold float64
	stored    []*segment.Segment
	execs     []Exec
	byClass   map[segment.Signature][]int

	total, matches, possible int
}

func newRefReducer(method string, threshold float64) *refReducer {
	return &refReducer{method: method, threshold: threshold, byClass: map[segment.Signature][]int{}}
}

// feed is the old RankReducer.Feed: linear scan over the signature
// bucket with a per-comparison Comparable filter.
func (r *refReducer) feed(s *segment.Segment) {
	r.total++
	ids := r.byClass[s.Sig()]
	var candIDs []int
	for _, id := range ids {
		if r.stored[id].Comparable(s) {
			candIDs = append(candIDs, id)
		}
	}
	if len(candIDs) > 0 {
		r.possible++
	}
	if idx := r.refScan(candIDs, s); idx >= 0 {
		storedID := candIDs[idx]
		r.refAbsorb(r.stored[storedID], s)
		r.execs = append(r.execs, Exec{ID: storedID, Start: s.Start})
		r.matches++
		return
	}
	id := len(r.stored)
	kept := s.Clone()
	kept.Start = 0
	r.stored = append(r.stored, kept)
	r.execs = append(r.execs, Exec{ID: id, Start: s.Start})
	r.byClass[s.Sig()] = append(ids, id)
}

// refScan is the old first-fit scan, including the counting policies.
func (r *refReducer) refScan(candIDs []int, s *segment.Segment) int {
	switch r.method {
	case "iter_k":
		if len(candIDs) >= int(r.threshold) {
			return len(candIDs) - 1
		}
		return -1
	case "iter_avg":
		if len(candIDs) > 0 {
			return 0
		}
		return -1
	case "sample_n":
		seen := 0
		for _, id := range candIDs {
			seen += r.stored[id].Weight
		}
		if seen%int(r.threshold) == 0 {
			return -1
		}
		return len(candIDs) - 1
	}
	for i, id := range candIDs {
		if refMatch(r.method, r.threshold, r.stored[id], s) {
			return i
		}
	}
	return -1
}

func (r *refReducer) refAbsorb(matched, cand *segment.Segment) {
	switch r.method {
	case "iter_avg":
		iterAvg{}.Absorb(matched, cand)
	case "sample_n":
		matched.Weight++
	}
}

// ---------------------------------------------------------------------
// Deterministic segment stream generator.
// ---------------------------------------------------------------------

type xorshift struct{ s uint64 }

func (x *xorshift) next() uint64 {
	x.s ^= x.s << 13
	x.s ^= x.s >> 7
	x.s ^= x.s << 17
	return x.s
}

// genSegments produces a deterministic stream of segments across several
// pattern classes with measurement spreads chosen to sit on both sides
// of every default threshold — including near-boundary values that
// stress the pruning margin. Some segments differ from a class of the
// same context and event count only in their last event's Bytes or
// Peer, so the matcher's predecessor check fails at the last event and
// the bucket lookup has to run.
func genSegments(n int) []*segment.Segment {
	rng := &xorshift{s: 0x9e3779b97f4a7c15}
	contexts := []string{"main.1", "main.2", "main.3.1"}
	var segs []*segment.Segment
	for i := 0; i < n; i++ {
		ctx := contexts[rng.next()%uint64(len(contexts))]
		nev := 1 + int(rng.next()%3)
		// Base scale varies wildly so relative and absolute thresholds
		// both see matches and misses.
		base := int64(10 + rng.next()%50)
		if rng.next()%4 == 0 {
			base *= int64(1 + rng.next()%40)
		}
		ev := make([]trace.Event, 0, nev)
		t := int64(1 + rng.next()%uint64(base))
		for j := 0; j < nev; j++ {
			enter := t
			exit := enter + int64(rng.next()%uint64(base+1))
			t = exit + int64(rng.next()%8)
			ev = append(ev, trace.Event{
				Name: "op", Kind: trace.KindCompute, Enter: enter, Exit: exit,
				Peer: trace.NoPeer, Root: trace.NoPeer,
			})
		}
		switch rng.next() % 6 {
		case 0:
			ev[nev-1].Bytes = 64
		case 1:
			ev[nev-1].Peer = 1
		}
		segs = append(segs, &segment.Segment{
			Context: ctx,
			Rank:    0,
			Start:   trace.Time(i * 1000),
			End:     t + int64(rng.next()%4),
			Events:  ev,
			Weight:  1,
		})
	}
	return segs
}

// TestMatcherBruteForceParity holds the indexed matcher to exactly the
// decisions of the pre-matcher reference loop for every method — same
// kept representatives, same execution log, same counters — over a
// segment stream stressing class collisions of scale and near-threshold
// boundaries.
func TestMatcherBruteForceParity(t *testing.T) {
	cases := []struct {
		method    string
		threshold float64
		mk        func() Policy
	}{
		{"relDiff", 0.8, func() Policy { return NewRelDiff(0.8) }},
		{"relDiff", 0.2, func() Policy { return NewRelDiff(0.2) }},
		{"absDiff", 1000, func() Policy { return NewAbsDiff(1000) }},
		{"absDiff", 10, func() Policy { return NewAbsDiff(10) }},
		{"manhattan", 0.4, func() Policy { return NewManhattan(0.4) }},
		{"euclidean", 0.2, func() Policy { return NewEuclidean(0.2) }},
		{"chebyshev", 0.2, func() Policy { return NewChebyshev(0.2) }},
		{"avgWave", 0.2, func() Policy { return NewAvgWave(0.2) }},
		{"haarWave", 0.2, func() Policy { return NewHaarWave(0.2) }},
		{"iter_k", 10, func() Policy { p, _ := NewIterK(10); return p }},
		{"iter_avg", 0, func() Policy { return NewIterAvg() }},
		{"sample_n", 3, func() Policy { p, _ := NewSampleN(3); return p }},
	}
	segs := genSegments(3000)
	for _, tc := range cases {
		tc := tc
		t.Run(tc.method, func(t *testing.T) {
			ref := newRefReducer(tc.method, tc.threshold)
			rr := NewRankReducer(0, tc.mk())
			for _, s := range segs {
				// Both engines clone what they keep, but iter_avg mutates
				// its stored representative in place, so each side feeds
				// its own copy.
				ref.feed(s.Clone())
				rr.Feed(s.Clone())
			}
			got := rr.Finish()
			if len(got.Stored) != len(ref.stored) {
				t.Fatalf("stored %d, reference %d", len(got.Stored), len(ref.stored))
			}
			for i := range ref.stored {
				if !ref.stored[i].Comparable(got.Stored[i]) || ref.stored[i].End != got.Stored[i].End {
					t.Fatalf("stored %d differs: %+v vs %+v", i, got.Stored[i], ref.stored[i])
				}
			}
			if len(got.Execs) != len(ref.execs) {
				t.Fatalf("execs %d, reference %d", len(got.Execs), len(ref.execs))
			}
			for i := range ref.execs {
				if got.Execs[i] != ref.execs[i] {
					t.Fatalf("exec %d: %+v vs reference %+v", i, got.Execs[i], ref.execs[i])
				}
			}
			if rr.TotalSegments() != ref.total || rr.Matches() != ref.matches || rr.PossibleMatches() != ref.possible {
				t.Errorf("counters (%d,%d,%d) vs reference (%d,%d,%d)",
					rr.TotalSegments(), rr.Matches(), rr.PossibleMatches(),
					ref.total, ref.matches, ref.possible)
			}
		})
	}
}

// TestRankReducerResetParity: a reducer reset between ranks, as each
// engine worker's is, reduces every rank exactly as a fresh reducer
// does, for every method. The matcher keeps its table and slabs across
// the reset but no class, representative or predecessor class of the
// rank before, so a first segment shaped like the last rank's last one
// must start a new class.
func TestRankReducerResetParity(t *testing.T) {
	segs := genSegments(3000)
	ranks := [][]*segment.Segment{segs[:1200], nil, segs[1200:2000], segs[2000:]}
	for _, method := range MethodNames {
		p, err := DefaultMethod(method)
		if err != nil {
			t.Fatal(err)
		}
		reused := NewRankReducer(0, p)
		for i, rank := range ranks {
			if i > 0 {
				reused.reset(i)
			}
			fresh := NewRankReducer(i, p)
			for _, s := range rank {
				// iter_avg mutates what it keeps, so each side feeds its
				// own copy.
				reused.Feed(s.Clone())
				fresh.Feed(s.Clone())
			}
			got, want := reused.Finish(), fresh.Finish()
			if got.Rank != want.Rank || len(got.Stored) != len(want.Stored) || !slices.Equal(got.Execs, want.Execs) {
				t.Fatalf("%s rank %d: rank %d, %d stored, %d execs; fresh reducer: rank %d, %d stored, %d execs",
					method, i, got.Rank, len(got.Stored), len(got.Execs), want.Rank, len(want.Stored), len(want.Execs))
			}
			for j, g := range got.Stored {
				w := want.Stored[j]
				if g.Context != w.Context || g.Start != w.Start || g.End != w.End || g.Weight != w.Weight || !slices.Equal(g.Events, w.Events) {
					t.Fatalf("%s rank %d: stored %d differs: %+v vs %+v", method, i, j, g, w)
				}
			}
			if reused.TotalSegments() != fresh.TotalSegments() || reused.Matches() != fresh.Matches() ||
				reused.PossibleMatches() != fresh.PossibleMatches() {
				t.Errorf("%s rank %d: counters (%d,%d,%d), fresh reducer (%d,%d,%d)", method, i,
					reused.TotalSegments(), reused.Matches(), reused.PossibleMatches(),
					fresh.TotalSegments(), fresh.Matches(), fresh.PossibleMatches())
			}
		}
	}
}

// collisionSegment builds a minimal segment with the given context and
// duration whose signature is then forced to collide.
func collisionSegment(ctx string, dur trace.Time, start trace.Time) *segment.Segment {
	return &segment.Segment{
		Context: ctx,
		Start:   start,
		End:     dur,
		Weight:  1,
		Events: []trace.Event{{
			Name: "w", Kind: trace.KindCompute, Enter: 1, Exit: dur - 1,
			Peer: trace.NoPeer, Root: trace.NoPeer,
		}},
	}
}

// TestMatcherSignatureCollisionDefense forces two non-comparable
// segments into the same Signature bucket and requires the class index
// to keep them in separate comparability groups: instances of either
// pattern must match only representatives of their own group, never leak
// across, and the possible-match counter must see exactly one class per
// candidate. The feed orders alternate the patterns and repeat each, so
// the predecessor check both hits and falls back to the shared bucket.
func TestMatcherSignatureCollisionDefense(t *testing.T) {
	const forced = segment.Signature(0xdeadbeef)
	mkA := func(start trace.Time) *segment.Segment {
		s := collisionSegment("ctxA", 100, start)
		s.ForceSig(forced)
		return s
	}
	mkB := func(start trace.Time) *segment.Segment {
		s := collisionSegment("ctxB", 100, start)
		s.ForceSig(forced)
		return s
	}
	if mkA(0).Sig() != mkB(0).Sig() {
		t.Fatal("forced signatures must collide")
	}
	if mkA(0).Comparable(mkB(0)) {
		t.Fatal("collision segments must not be comparable")
	}

	for _, order := range []string{"ABAB", "AABBAB"} {
		rr := NewRankReducer(0, NewRelDiff(0.8))
		var wantIDs []int
		for i, p := range order {
			start := trace.Time(1000 * i)
			if p == 'A' {
				// A is fed first: representative 0, class A.
				rr.Feed(mkA(start))
				wantIDs = append(wantIDs, 0)
				continue
			}
			// B's first instance is kept as representative 1 in a second
			// class of the same bucket; every later one must match it.
			rr.Feed(mkB(start))
			wantIDs = append(wantIDs, 1)
		}
		out := rr.Finish()
		if len(out.Stored) != 2 {
			t.Fatalf("%s: stored %d representatives, want 2 (one per comparability group)", order, len(out.Stored))
		}
		for i, ex := range out.Execs {
			if ex.ID != wantIDs[i] {
				t.Errorf("%s: exec %d matched representative %d, want %d", order, i, ex.ID, wantIDs[i])
			}
		}
		if want := len(order) - 2; rr.Matches() != want || rr.PossibleMatches() != want {
			t.Errorf("%s: matches=%d possible=%d, want %d and %d", order, rr.Matches(), rr.PossibleMatches(), want, want)
		}
	}

	// The bucket must hold two distinct classes, each with one member.
	m := NewMatcher(NewRelDiff(0.8))
	a, b := mkA(0), mkB(0)
	m.Insert(nil, a, 0, nil)
	m.Insert(nil, b, 1, nil)
	clsA, _, _ := m.Scan(mkA(10))
	clsB, _, _ := m.Scan(mkB(10))
	if clsA == nil || clsB == nil || clsA == clsB {
		t.Fatalf("collision classes not separated: %p vs %p", clsA, clsB)
	}
	if clsA.Len() != 1 || clsA.Rep(0) != a || clsA.StoredID(0) != 0 {
		t.Error("class A holds the wrong representative")
	}
	if clsB.Len() != 1 || clsB.Rep(0) != b || clsB.StoredID(0) != 1 {
		t.Error("class B holds the wrong representative")
	}
}
