package segment_test

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/segment"
	"repro/internal/trace"
)

var (
	catalogOnce   sync.Once
	catalogTraces []*trace.Trace
	catalogSegs   []*segment.Segment
	catalogErr    error
)

// loadCatalog generates and splits the study's 20 catalog traces, once
// per test binary.
func loadCatalog(tb testing.TB) {
	tb.Helper()
	catalogOnce.Do(func() {
		r := eval.NewRunner()
		for _, name := range eval.AllNames() {
			t, err := r.Trace(name)
			if err != nil {
				catalogErr = err
				return
			}
			catalogTraces = append(catalogTraces, t)
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
}

// catalogSegments returns every segment of every rank of the catalog.
func catalogSegments(tb testing.TB) []*segment.Segment {
	loadCatalog(tb)
	return catalogSegs
}

// TestViewParity holds the view EachView gives of every catalog segment
// to the segment's Split copy: the two are Comparable both ways and give
// the same signature, measurements, stamp vector and clone, and iter_avg
// folds either into the same representative.
func TestViewParity(t *testing.T) {
	loadCatalog(t)
	avg := core.NewIterAvg()
	views := 0
	for _, tr := range catalogTraces {
		for r := range tr.Ranks {
			rt := &tr.Ranks[r]
			copies, err := segment.Split(rt)
			if err != nil {
				t.Fatal(err)
			}
			var v segment.Segment
			i := 0
			err = segment.EachView(rt.Rank, rt.Events, &v, func(v *segment.Segment) {
				c := copies[i]
				i++
				where := fmt.Sprintf("%s rank %d segment %d", tr.Name, rt.Rank, i-1)
				if !v.Comparable(c) || !c.Comparable(v) {
					t.Fatalf("%s: view and copy not comparable", where)
				}
				if v.Sig() != c.Sig() {
					t.Fatalf("%s: signature %x, copy's %x", where, v.Sig(), c.Sig())
				}
				if !slices.Equal(v.Measurements(nil), c.Measurements(nil)) {
					t.Fatalf("%s: measurements differ", where)
				}
				if !slices.Equal(v.StampVector(nil), c.StampVector(nil)) {
					t.Fatalf("%s: stamp vectors differ", where)
				}
				if !reflect.DeepEqual(v.Clone(), c.Clone()) {
					t.Fatalf("%s: clones differ", where)
				}
				fromView, fromCopy := c.Clone(), c.Clone()
				avg.Absorb(fromView, v)
				avg.Absorb(fromCopy, c)
				if !reflect.DeepEqual(fromView, fromCopy) {
					t.Fatalf("%s: iter_avg folds the view into a different representative", where)
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			if i != len(copies) {
				t.Fatalf("%s rank %d: %d views, %d copies", tr.Name, rt.Rank, i, len(copies))
			}
			views += i
		}
	}
	t.Logf("%d views", views)
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
