// Package segment splits per-rank event traces into segments at the
// marker boundaries the instrumentation inserts around loops (paper §3.1),
// normalizes event times relative to the segment start, and computes the
// signatures that decide whether two segments are comparable at all.
package segment

import (
	"fmt"
	"math/bits"

	"repro/internal/trace"
)

// Segment is one contiguous marked region of a single rank's trace with
// event timestamps normalized relative to the segment start.
type Segment struct {
	// Context is the hierarchical code location ("init", "main.1",
	// "main.2.1", "final").
	Context string
	// Rank is the process the segment was collected from.
	Rank int
	// Start is the absolute start timestamp in the original trace.
	Start trace.Time
	// End is the segment duration (end marker time relative to Start).
	End trace.Time
	// Events holds the segment's events with Enter/Exit relative to Start.
	Events []trace.Event
	// Weight counts how many raw segments this one represents; iter_avg
	// folds matches into a running average and increments Weight.
	Weight int

	sig  Signature // cached; computed on first use
	meas []float64 // cached Measurements; computed on first use of Meas
}

// Signature identifies the pattern class of a segment: context plus the
// identity (name, kind, message parameters) of every event in order. Two
// segments are a "possible match" in the paper's sense only if their
// signatures are equal; Comparable settles the rare collision.
//
// A Signature is an in-process bucket key, not a content hash: its value
// may change between releases and must not be persisted or compared
// across processes. (The trace content signature that keys the service
// cache is trace.Signature, a SHA-256.)
type Signature uint64

// The hash state starts at the FNV-64 offset basis and folds one 64-bit
// word at a time: xor, multiply by the FNV-64 prime, rotate. Both the
// multiply and the rotate are bijections, so two segments whose inputs
// differ only in their last word never collide.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// mix folds one word into the hash state.
func mix(h, v uint64) uint64 { return bits.RotateLeft64((h^v)*fnvPrime64, 27) }

// mixString folds a string as its length followed by its bytes in
// little-endian 8-byte words, the last one zero-padded.
func mixString(h uint64, x string) uint64 {
	h = mix(h, uint64(len(x)))
	for ; len(x) >= 8; x = x[8:] {
		h = mix(h, uint64(x[0])|uint64(x[1])<<8|uint64(x[2])<<16|uint64(x[3])<<24|
			uint64(x[4])<<32|uint64(x[5])<<40|uint64(x[6])<<48|uint64(x[7])<<56)
	}
	if len(x) > 0 {
		var w uint64
		for i := 0; i < len(x); i++ {
			w |= uint64(x[i]) << (8 * i)
		}
		h = mix(h, w)
	}
	return h
}

// Sig returns the segment's signature, computing and caching it on first
// call. It covers exactly what Comparable compares — the context, the
// event count, and each event's SameShape fields — so comparable
// segments always share a signature. The value is not stable across
// releases; see Signature.
func (s *Segment) Sig() Signature {
	if s.sig != 0 {
		return s.sig
	}
	h := uint64(fnvOffset64)
	h = mixString(h, s.Context)
	h = mix(h, uint64(len(s.Events)))
	for i := range s.Events {
		e := &s.Events[i]
		h = mixString(h, e.Name)
		h = mix(h, uint64(e.Kind)<<32|uint64(uint32(e.Root)))
		h = mix(h, uint64(uint32(e.Peer))<<32|uint64(uint32(e.Tag)))
		h = mix(h, uint64(e.Bytes))
	}
	s.sig = Signature(h)
	if s.sig == 0 {
		s.sig = 1 // reserve 0 for "not yet computed"
	}
	return s.sig
}

// ResetSig clears the cached signature; call it after mutating a
// segment's identity fields (context, event shapes).
func (s *Segment) ResetSig() { s.sig = 0 }

// ForceSig overrides the cached signature. It exists solely so tests can
// simulate signature collisions between non-comparable segments —
// infeasible to construct organically — and exercise the collision
// defenses downstream. Never call it outside tests.
func (s *Segment) ForceSig(sig Signature) { s.sig = sig }

// Comparable reports whether two segments have the same context and the
// same events (names, kinds, message parameters) in the same order — the
// precondition every similarity method shares (paper compareSegments).
func (s *Segment) Comparable(o *Segment) bool {
	if s.Context != o.Context || len(s.Events) != len(o.Events) {
		return false
	}
	if s.Sig() != o.Sig() {
		return false
	}
	for i := range s.Events {
		if !s.Events[i].SameShape(o.Events[i]) {
			return false
		}
	}
	return true
}

// Measurements appends the segment's measurement values in the canonical
// order used by the pairwise and Minkowski methods — segment end first,
// then each event's enter and exit stamp (paper Figure 2: s2 ↦
// (49, 1, 17, 18, 48)) — and returns the extended slice.
func (s *Segment) Measurements(dst []float64) []float64 {
	dst = append(dst, float64(s.End))
	for _, e := range s.Events {
		dst = append(dst, float64(e.Enter), float64(e.Exit))
	}
	return dst
}

// Meas returns the segment's measurement vector (see Measurements),
// computing and caching it on first call. Stored representatives are
// compared against every later instance of their pattern class, so the
// cache turns the per-comparison vector build into a one-time cost. The
// caller must not modify the returned slice; after mutating measurement
// fields (End, event stamps) call ResetMeas.
func (s *Segment) Meas() []float64 {
	if s.meas == nil {
		s.meas = s.Measurements(make([]float64, 0, s.NumMeasurements()))
	}
	return s.meas
}

// ResetMeas clears the cached measurement vector; call it after mutating
// a segment's timing fields (iter_avg's Absorb does).
func (s *Segment) ResetMeas() { s.meas = nil }

// StampVector appends the wavelet input vector: the relative start (always
// 0), every event enter/exit stamp, and the segment end (paper §3.2.1),
// returning the extended slice.
func (s *Segment) StampVector(dst []float64) []float64 {
	dst = append(dst, 0)
	for _, e := range s.Events {
		dst = append(dst, float64(e.Enter), float64(e.Exit))
	}
	return append(dst, float64(s.End))
}

// NumMeasurements returns len(Measurements): 2*len(Events)+1.
func (s *Segment) NumMeasurements() int { return 2*len(s.Events) + 1 }

// Clone returns a deep copy of the segment.
func (s *Segment) Clone() *Segment {
	c := *s
	c.Events = append([]trace.Event(nil), s.Events...)
	return &c
}

// Split cuts one rank's event stream into segments. Marker events delimit
// segments; event times inside each segment are rebased relative to the
// begin-marker time. The input trace must satisfy trace.Validate's marker
// discipline (alternating, non-nested, matching contexts). Split is the
// batch form of Splitter.
func Split(rt *trace.RankTrace) ([]*Segment, error) {
	sp := NewSplitter(rt.Rank)
	var segs []*Segment
	for _, e := range rt.Events {
		s, err := sp.Feed(e)
		if err != nil {
			return nil, err
		}
		if s != nil {
			segs = append(segs, s)
		}
	}
	if err := sp.Finish(); err != nil {
		return nil, err
	}
	return segs, nil
}

// SplitTrace segments every rank of t. The result is indexed by rank.
func SplitTrace(t *trace.Trace) ([][]*Segment, error) {
	out := make([][]*Segment, len(t.Ranks))
	for i := range t.Ranks {
		segs, err := Split(&t.Ranks[i])
		if err != nil {
			return nil, fmt.Errorf("trace %q: %w", t.Name, err)
		}
		out[i] = segs
	}
	return out, nil
}
