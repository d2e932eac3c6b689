// Package matchbench generates the deterministic segment workload the
// matcher benchmarks and allocation gates share, shaped to be the exact
// first-match scan's worst case:
//
//   - All segments belong to one pattern class (same context, same event
//     shapes), so every candidate is compared against every stored
//     representative.
//   - Every class center is a permutation of one fixed timestamp
//     multiset. All measurement vectors therefore share the same
//     Minkowski norms and max-abs values, so the exact scan's
//     lower-bound pruning never fires and each comparison pays a full
//     distance computation.
//   - Distinct centers sit far apart (random permutations of values
//     spaced DefaultGap apart), while candidates jitter only a few time
//     units around their center, so each candidate matches its own
//     center and no other under every distance policy's default
//     threshold.
//
// The stream is seeded and platform-independent: benchmarks over it are
// comparable across runs and machines.
package matchbench

import (
	"repro/internal/segment"
	"repro/internal/trace"
)

const (
	// DefaultClasses is the number of cluster centers — the steady-state
	// stored-representative count of the benchmark class.
	DefaultClasses = 512
	// DefaultCandidates is the number of jittered post-warmup segments.
	DefaultCandidates = 4096
	// NumEvents is the event count per segment; the measurement vector
	// has 2*NumEvents+1 components.
	NumEvents = 8
	// DefaultGap spaces the timestamp multiset; permutation distances are
	// multiples of it, far outside every default threshold ball.
	DefaultGap = 400
	// jitterMax bounds the per-stamp candidate jitter; the full-vector
	// Euclidean displacement stays under sqrt(2*NumEvents)*jitterMax,
	// well inside every default threshold ball.
	jitterMax = 12
)

// xorshift is the same tiny deterministic generator the core tests use.
type xorshift struct{ s uint64 }

func (x *xorshift) next() uint64 {
	x.s ^= x.s << 13
	x.s ^= x.s >> 7
	x.s ^= x.s << 17
	return x.s
}

// centerStamps returns the k centers: seeded random permutations of the
// fixed multiset {DefaultGap, 2*DefaultGap, ...}.
func centerStamps(k int) [][]int64 {
	n := 2 * NumEvents
	base := make([]int64, n)
	for i := range base {
		base[i] = int64(i+1) * DefaultGap
	}
	rng := &xorshift{s: 0x6d61746368626e63} // "matchbnc"
	centers := make([][]int64, k)
	for c := range centers {
		p := append([]int64(nil), base...)
		for i := n - 1; i > 0; i-- {
			j := int(rng.next() % uint64(i+1))
			p[i], p[j] = p[j], p[i]
		}
		centers[c] = p
	}
	return centers
}

// build assembles a segment from a stamp assignment. All segments share
// the context, event shapes, and End value, so they form one pattern
// class with identical measurement max-abs.
func build(stamps []int64, start trace.Time) *segment.Segment {
	ev := make([]trace.Event, NumEvents)
	for i := range ev {
		ev[i] = trace.Event{
			Name: "op", Kind: trace.KindCompute,
			Enter: trace.Time(stamps[2*i]), Exit: trace.Time(stamps[2*i+1]),
			Peer: trace.NoPeer, Root: trace.NoPeer,
		}
	}
	return &segment.Segment{
		Context: "bench.main",
		Rank:    0,
		Start:   start,
		End:     trace.Time(2*NumEvents+1) * DefaultGap,
		Events:  ev,
		Weight:  1,
	}
}

// Reps returns the k class centers as segments, the representative set
// the scan benchmarks index.
func Reps(k int) []*segment.Segment {
	centers := centerStamps(k)
	reps := make([]*segment.Segment, k)
	for i, c := range centers {
		reps[i] = build(c, trace.Time(i)*100000)
	}
	return reps
}

// Candidates returns n segments, each a jittered copy of a
// pseudo-randomly chosen center among k: every candidate matches exactly
// its own center under the default thresholds of every distance policy.
func Candidates(k, n int) []*segment.Segment {
	centers := centerStamps(k)
	rng := &xorshift{s: 0xcafef00dbeefd00d}
	cands := make([]*segment.Segment, n)
	stamps := make([]int64, 2*NumEvents)
	for i := range cands {
		c := centers[rng.next()%uint64(k)]
		for j := range stamps {
			stamps[j] = c[j] + int64(rng.next()%(2*jitterMax+1)) - jitterMax
		}
		cands[i] = build(stamps, trace.Time(k+i)*100000)
	}
	return cands
}

// Stream returns the end-to-end reduction stream: the k centers first
// (each stored as a representative), then n jittered candidates (each
// matching its center).
func Stream(k, n int) []*segment.Segment {
	return append(Reps(k), Candidates(k, n)...)
}
