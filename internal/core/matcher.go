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
	// next chains the classes that share proto's signature bucket.
	next *Class
	segs []*segment.Segment
	ids  []int
	// The state slab: row i of the width-wide row-major data matrix is
	// representative i's prepared vector; norm[i]/maxAbs[i] are its
	// pruning scalars. Grown by append, so rows may relocate — readers
	// (the kernels) fetch rows at use time, never hold them.
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

// reset empties the class for reuse, keeping its slab's storage. It
// drops every pointer to the old representatives, so none outlives the
// rank that kept it.
func (c *Class) reset() {
	clear(c.segs)
	*c = Class{segs: c.segs[:0], ids: c.ids[:0], data: c.data[:0], norm: c.norm[:0], maxAbs: c.maxAbs[:0]}
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
// than on every scan. A scan first tries the class of the segment before
// it, since consecutive segments mostly share a shape, and looks the
// candidate's signature up only when that class does not fit. Every scan
// is the paper's first-match linear scan over the class, run by the
// policy's fused slab kernel.
//
// A Matcher indexes one rank's representatives at a time and is not
// safe for concurrent use; each engine worker runs one RankReducer,
// whose matcher it resets between ranks.
type Matcher struct {
	policy Policy
	// buckets maps a signature to its first comparability class; the
	// rest follow through Class.next. Almost every bucket holds exactly
	// one class; more appear only on signature collisions between
	// non-comparable segments.
	buckets map[segment.Signature]*Class
	// classes holds every Class the matcher has made; the first nclasses
	// belong to the current rank, and reset recycles them all.
	classes  []*Class
	nclasses int
	// last is the class the latest Scan returned or Insert created, the
	// first one the next Scan tries.
	last *Class
	// scratch is the single candidate RepState the matcher reuses for
	// every Scan, keeping the steady-state hot path allocation-free. Its
	// contents are valid until the next Prepare into it.
	scratch RepState
}

// NewMatcher returns an empty matcher for policy p.
func NewMatcher(p Policy) *Matcher {
	return &Matcher{policy: p, buckets: map[segment.Signature]*Class{}}
}

// reset empties the matcher for the next rank. It keeps the bucket map's
// table, the Class structs and their slabs' storage, and drops every
// pointer to the old rank's representatives, the predecessor class
// included, so the next rank can neither match nor keep alive a
// representative of the last one.
func (m *Matcher) reset() {
	clear(m.buckets)
	for _, c := range m.classes[:m.nclasses] {
		c.reset()
	}
	m.nclasses = 0
	m.last = nil
}

// newClass returns an empty class with prototype proto, a recycled one
// when reset left any.
func (m *Matcher) newClass(proto *segment.Segment) *Class {
	if m.nclasses == len(m.classes) {
		m.classes = append(m.classes, &Class{})
	}
	c := m.classes[m.nclasses]
	m.nclasses++
	c.proto = proto
	return c
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
// and reusable by Insert when the candidate is kept.
//
// The class is found in two steps. First the class the previous Scan
// returned or Insert created is tried with one Comparable check, which
// on a segment shaped like its predecessor (the common case) costs no
// hash. Only when it does not fit is cand's signature computed and its
// bucket searched. Both steps find the same class: comparability is an
// equivalence and comparable segments share a signature, so a bucket
// holds at most one class per shape. A candidate whose bucket is empty
// returns before any Prepare work, and the kept clone is prepared at
// insertion instead.
func (m *Matcher) Scan(cand *segment.Segment) (cls *Class, idx int, cs *RepState) {
	c := m.last
	if c == nil || !c.proto.Comparable(cand) {
		for c = m.buckets[cand.Sig()]; c != nil && !c.proto.Comparable(cand); c = c.next {
		}
		if c == nil {
			return nil, -1, nil
		}
		m.last = c
	}
	cs = &m.scratch
	m.policy.Prepare(cand, cs)
	return c, m.policy.Match(c, cand, cs), cs
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
		cls = m.newClass(rep)
		sig := rep.Sig()
		cls.next = m.buckets[sig]
		m.buckets[sig] = cls
		m.last = cls
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
