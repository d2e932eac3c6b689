package segment_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/eval"
	"repro/internal/segment"
)

var (
	catalogOnce sync.Once
	catalogSegs []*segment.Segment
	catalogErr  error
)

// catalogSegments splits the study's 20 catalog traces, once per test
// binary, and returns every segment of every rank.
func catalogSegments(tb testing.TB) []*segment.Segment {
	tb.Helper()
	catalogOnce.Do(func() {
		r := eval.NewRunner()
		for _, name := range eval.AllNames() {
			t, err := r.Trace(name)
			if err != nil {
				catalogErr = err
				return
			}
			ranks, err := segment.SplitTrace(t)
			if err != nil {
				catalogErr = err
				return
			}
			for _, segs := range ranks {
				catalogSegs = append(catalogSegs, segs...)
			}
		}
	})
	if catalogErr != nil {
		tb.Fatal(catalogErr)
	}
	return catalogSegs
}

// shapeKey spells out everything Comparable compares, so two segments
// have equal keys exactly when they are comparable.
func shapeKey(s *segment.Segment) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%q %d", s.Context, len(s.Events))
	for _, e := range s.Events {
		fmt.Fprintf(&b, " %q/%d/%d/%d/%d/%d", e.Name, e.Kind, e.Peer, e.Tag, e.Bytes, e.Root)
	}
	return b.String()
}

// TestSignatureCatalogShapes requires every distinct segment shape of
// the catalog to get its own signature, and every segment of one shape
// the same one.
func TestSignatureCatalogShapes(t *testing.T) {
	sigOf := map[string]segment.Signature{}
	shapeOf := map[segment.Signature]string{}
	for _, s := range catalogSegments(t) {
		key, sig := shapeKey(s), s.Sig()
		if prev, ok := sigOf[key]; ok {
			if prev != sig {
				t.Fatalf("one shape, two signatures %x and %x: %s", prev, sig, key)
			}
			continue
		}
		if other, ok := shapeOf[sig]; ok {
			t.Errorf("signature %x shared by shapes\n%s\n%s", sig, other, key)
		}
		sigOf[key], shapeOf[sig] = sig, key
	}
	t.Logf("%d distinct shapes, %d distinct signatures", len(sigOf), len(shapeOf))
}

// BenchmarkSegmentSig recomputes the pattern-class signature of every
// segment of the catalog per iteration — the hash Matcher.Scan pays once
// per segment — and reports the per-event cost.
func BenchmarkSegmentSig(b *testing.B) {
	segs := catalogSegments(b)
	events := 0
	for _, s := range segs {
		events += len(s.Events)
	}
	b.ReportAllocs()
	for b.Loop() {
		for _, s := range segs {
			s.ResetSig()
			s.Sig()
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*events), "ns/event")
}
