package core

import (
	"fmt"

	"repro/internal/segment"
)

// Class is one comparability group of stored representatives: segments
// that share a pattern class in the paper's sense (same context, same
// event shapes), held in collection order together with their prepared
// per-representative state and their indices into the owning
// RankReduced.Stored slice.
//
// The prepared state lives in a contiguous structure-of-arrays slab:
// data is a growable row-major matrix holding each representative's
// prepared vector (padded to the class row width), and norm/maxAbs are
// the parallel pruning columns. The scan kernels (kernels.go) read rows
// straight out of the slab — no per-representative slice allocations, no
// pointer chasing. Counting policies (iter_k, iter_avg, sample_n) prepare
// empty vectors and their classes carry no rows. Comparable segments have
// equal measurement counts, so every member of a class produces the same
// vector width.
//
// A Class is built incrementally by a Matcher: the first kept segment of
// the group becomes its prototype, and every later member was verified
// Comparable with that prototype when it was inserted. Comparability is
// an equivalence relation (context equality plus per-event shape
// equality), so membership is transitive: a candidate Comparable with
// the prototype is Comparable with every member, and policies never need
// to re-check it.
type Class struct {
	proto *segment.Segment
	segs  []*segment.Segment
	ids   []int
	// The state slab: row i of the width-wide row-major data matrix is
	// representative i's prepared vector; norm[i]/maxAbs[i] are its
	// pruning scalars. Grown by append, so rows may relocate — readers
	// (the kernels) fetch rows at use time via Row, never hold them.
	width  int
	data   []float64
	norm   []float64
	maxAbs []float64
}

// Len returns the number of representatives in the class.
func (c *Class) Len() int { return len(c.segs) }

// Rep returns the i-th representative in collection order.
func (c *Class) Rep(i int) *segment.Segment { return c.segs[i] }

// StoredID returns the i-th representative's index in the owning
// RankReduced.Stored slice.
func (c *Class) StoredID(i int) int { return c.ids[i] }

// add appends a representative to the class, copying cs's vector and
// pruning scalars into the slab (policies with no vector add no row).
func (c *Class) add(rep *segment.Segment, id int, cs *RepState) {
	c.segs = append(c.segs, rep)
	c.ids = append(c.ids, id)
	if cs == nil || len(cs.Vec) == 0 {
		return
	}
	if c.width == 0 {
		c.width = len(cs.Vec)
	}
	c.data = append(c.data, cs.Vec...)
	c.norm = append(c.norm, cs.Norm)
	c.maxAbs = append(c.maxAbs, cs.MaxAbs)
}

// setRow overwrites representative i's slab row after a mutating Absorb
// re-prepared it. No-op for classes without rows.
func (c *Class) setRow(i int, cs *RepState) {
	if len(c.norm) == 0 || len(cs.Vec) == 0 {
		return
	}
	copy(c.data[i*c.width:(i+1)*c.width], cs.Vec)
	c.norm[i] = cs.Norm
	c.maxAbs[i] = cs.MaxAbs
}

// Matcher is the indexed pattern-class matcher at the heart of the
// reduction engine: it buckets stored representatives by signature,
// partitions each bucket into comparability Classes at insertion time
// (defending against signature collisions once per class instead of
// once per comparison), and keeps each representative's prepared state
// in its class's contiguous slab — transformed wavelet vectors,
// Minkowski norms, max-abs values — computed once at storage time rather
// than on every scan. Every scan is the paper's first-match linear scan
// over the class, run by the policy's fused slab kernel.
//
// A Matcher indexes one rank's representatives and is not safe for
// concurrent use; the engine runs one per RankReducer.
type Matcher struct {
	policy Policy
	// buckets maps a signature to its comparability classes in creation
	// order. Almost every bucket holds exactly one class; extras appear
	// only on signature collisions between non-comparable segments.
	buckets map[segment.Signature][]*Class
	// scratch is the single candidate RepState the matcher reuses for
	// every Scan, keeping the steady-state hot path allocation-free. Its
	// contents are valid until the next Prepare into it.
	scratch RepState
}

// NewMatcher returns an empty matcher for policy p.
func NewMatcher(p Policy) *Matcher {
	return &Matcher{policy: p, buckets: map[segment.Signature][]*Class{}}
}

// MatchMode is the type of StreamOptions.Mode. Every scan is the
// paper's first-match linear scan, so no value changes an output byte;
// the values survive only for the names they print.
//
// Deprecated: perfbench is the last caller.
type MatchMode uint8

const (
	// MatchModeExact is the paper's first-match linear scan.
	//
	// Deprecated: every scan is exact. perfbench is the last caller.
	MatchModeExact MatchMode = iota
	// MatchModeAuto selects the exact scan.
	//
	// Deprecated: every scan is exact. perfbench is the last caller.
	MatchModeAuto
)

// String returns the mode's name: "exact" or "auto".
func (m MatchMode) String() string {
	switch m {
	case MatchModeExact:
		return "exact"
	case MatchModeAuto:
		return "auto"
	}
	return fmt.Sprintf("MatchMode(%d)", uint8(m))
}

// NewMatcherMode returns NewMatcher(p); the mode is ignored.
//
// Deprecated: use NewMatcher. perfbench is the last caller.
func NewMatcherMode(p Policy, _ MatchMode) *Matcher { return NewMatcher(p) }

// Scan locates cand's comparability class and searches it with the
// policy's fused slab kernel for the first matching representative. cls is
// nil when cand has no comparable predecessor (a new pattern class); idx
// is -1 when the class exists but no stored representative matches.
// cs is the candidate's prepared state (a view of the matcher's reusable
// scratch, valid until the next Scan), computed once per scanned segment
// and reusable by Insert when the candidate is kept; the empty-bucket
// short-circuit returns before any Prepare work, so candidates of a new
// signature (the common case on irregular workloads) cost one hash
// lookup, and the kept clone is prepared at insertion instead.
func (m *Matcher) Scan(cand *segment.Segment) (cls *Class, idx int, cs *RepState) {
	classes := m.buckets[cand.Sig()]
	if len(classes) == 0 {
		return nil, -1, nil
	}
	for _, c := range classes {
		if c.proto.Comparable(cand) {
			cs = &m.scratch
			m.policy.Prepare(cand, cs)
			return c, m.policy.Match(c, cand, cs), cs
		}
	}
	return nil, -1, nil
}

// Insert stores rep — the kept (cloned, start-normalized) form of a
// scanned candidate — as a new representative with RankReduced.Stored
// index id. cls and cs must be the values Scan returned for the
// candidate: a nil cls starts a new comparability class under rep's
// signature, and a nil cs (no class existed, so the candidate was never
// prepared) is computed here. rep must have the same measurements as the
// scanned candidate, so the candidate's prepared state carries over.
func (m *Matcher) Insert(cls *Class, rep *segment.Segment, id int, cs *RepState) {
	if cs == nil {
		cs = &m.scratch
		m.policy.Prepare(rep, cs)
	}
	if cls == nil {
		cls = &Class{proto: rep}
		sig := rep.Sig()
		m.buckets[sig] = append(m.buckets[sig], cls)
	}
	cls.add(rep, id, cs)
}

// Absorb folds cand into the class's i-th representative via the policy
// and, when the policy reports it mutated the representative's
// measurements (iter_avg's running average), re-prepares the slab row so
// later scans see the updated derived data.
func (m *Matcher) Absorb(cls *Class, i int, cand *segment.Segment) {
	if m.policy.Absorb(cls.segs[i], cand) {
		m.policy.Prepare(cls.segs[i], &m.scratch)
		cls.setRow(i, &m.scratch)
	}
}
