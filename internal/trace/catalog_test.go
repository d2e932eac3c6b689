package trace_test

import (
	"bytes"
	"io"
	"strings"
	"sync"
	"testing"

	"repro/internal/eval"
	"repro/internal/trace"
)

var (
	catalogOnce sync.Once
	catalog     []*trace.Trace
	catalogErr  error
)

// catalogTraces returns the study's 20 catalog traces, generated once
// per test binary.
func catalogTraces(tb testing.TB) []*trace.Trace {
	tb.Helper()
	catalogOnce.Do(func() {
		r := eval.NewRunner()
		for _, name := range eval.AllNames() {
			t, err := r.Trace(name)
			if err != nil {
				catalogErr = err
				return
			}
			catalog = append(catalog, t)
		}
	})
	if catalogErr != nil {
		tb.Fatal(catalogErr)
	}
	return catalog
}

// TestEncodedSizeMatchesEncode holds the size walk to the bytes Encode
// writes, on the catalog and on the shapes the walk handles specially:
// no ranks, a rank with no events, an empty-string name, names shared
// across ranks, and the cases its name cache must not miscount —
// distinct names in one cache slot, equal names at different addresses,
// and "" alternating with a non-empty name.
func TestEncodedSizeMatchesEncode(t *testing.T) {
	ev := func(name string, kind trace.EventKind, enter, exit trace.Time) trace.Event {
		return trace.Event{Name: name, Kind: kind, Enter: enter, Exit: exit, Peer: trace.NoPeer, Root: trace.NoPeer}
	}
	sendRecv := trace.New("test", 2)
	sendRecv.Ranks[0].Events = []trace.Event{
		ev("init", trace.KindMarkBegin, 0, 0), ev("setup", trace.KindCompute, 0, 10), ev("init", trace.KindMarkEnd, 10, 10),
		{Name: "MPI_Send", Kind: trace.KindSend, Enter: 10, Exit: 12, Peer: 1, Tag: 3, Bytes: 64, Root: trace.NoPeer},
	}
	sendRecv.Ranks[1].Events = []trace.Event{
		ev("init", trace.KindMarkBegin, 0, 0), ev("setup", trace.KindCompute, 0, 8), ev("init", trace.KindMarkEnd, 8, 8),
		{Name: "MPI_Recv", Kind: trace.KindRecv, Enter: 8, Exit: 25, Peer: 0, Tag: 3, Bytes: 64, Root: trace.NoPeer},
	}
	idleRank := trace.New("idle rank", 3)
	idleRank.Ranks[1].Events = []trace.Event{ev("w", trace.KindCompute, 0, 1)}
	emptyName := trace.New("", 1)
	emptyName.Ranks[0].Events = []trace.Event{ev("", trace.KindCompute, 0, 1), ev("", trace.KindCompute, 1, 2), ev("x", trace.KindCompute, 2, 3)}
	shared := trace.New("shared", 4)
	for i := range shared.Ranks {
		shared.Ranks[i].Events = []trace.Event{ev("do_work", trace.KindCompute, 0, 5), ev("do_work", trace.KindCompute, 5, 9)}
	}
	// Equal length, first byte and last byte put names in one slot.
	slotMates := trace.New("slot mates", 2)
	for i, names := range [][]string{{"aXb", "aYb", "aXb", "aZb", "aYb"}, {"aZb", "aWb", "aXb"}} {
		for j, name := range names {
			slotMates.Ranks[i].Events = append(slotMates.Ranks[i].Events, ev(name, trace.KindCompute, trace.Time(j), trace.Time(j+1)))
		}
	}
	cloned := trace.New("cloned", 2)
	for i := range cloned.Ranks {
		for j := 0; j < 4; j++ {
			cloned.Ranks[i].Events = append(cloned.Ranks[i].Events, ev(strings.Clone("do_work"), trace.KindCompute, trace.Time(j), trace.Time(j+1)))
		}
	}
	alternating := trace.New("alternating", 1)
	for j, name := range []string{"", "x", "", "x", "", "y", ""} {
		alternating.Ranks[0].Events = append(alternating.Ranks[0].Events, ev(name, trace.KindCompute, trace.Time(j), trace.Time(j+1)))
	}
	cases := []*trace.Trace{sendRecv, trace.New("no ranks", 0), idleRank, emptyName, shared, slotMates, cloned, alternating}
	for _, tr := range append(cases, catalogTraces(t)...) {
		var buf bytes.Buffer
		if err := trace.Encode(&buf, tr); err != nil {
			t.Fatalf("%q: Encode: %v", tr.Name, err)
		}
		if got := trace.EncodedSize(tr); got != int64(buf.Len()) {
			t.Errorf("%q: EncodedSize = %d, Encode wrote %d", tr.Name, got, buf.Len())
		}
	}
}

// FuzzEncodedSize holds the size walk to the bytes Encode writes on
// traces whose names come from a small alphabet: "" and names that share
// EncodedSize's cache slots, some of them copied to a fresh address.
// Each input byte is one event: bits 0–2 pick the name, bit 3 clones it,
// and bits 4–5 pick the rank.
func FuzzEncodedSize(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 0, 1, 0})
	f.Add([]byte{1, 2, 1, 3, 2, 9, 10, 0x11, 0x22, 0x33})
	f.Add([]byte{4, 5, 6, 7, 0x14, 0x25, 0x3e, 0x0f, 0x07})
	alphabet := []string{"", "a", "aXb", "aYb", "aZb", "ab", "MPI_Send", "MPI_Bend"}
	f.Fuzz(func(t *testing.T, data []byte) {
		tr := trace.New("fuzz", 4)
		for j, b := range data {
			name := alphabet[b&7]
			if b&8 != 0 {
				name = strings.Clone(name)
			}
			rt := &tr.Ranks[(b>>4)&3]
			rt.Events = append(rt.Events, trace.Event{Name: name, Kind: trace.KindCompute,
				Enter: trace.Time(j), Exit: trace.Time(j + 1), Peer: trace.NoPeer, Root: trace.NoPeer})
		}
		var buf bytes.Buffer
		if err := trace.Encode(&buf, tr); err != nil {
			t.Fatal(err)
		}
		if got := trace.EncodedSize(tr); got != int64(buf.Len()) {
			t.Errorf("EncodedSize = %d, Encode wrote %d", got, buf.Len())
		}
	})
}

// TestDecodeKeepsAQuarterSpareAtMost: a rank Decode returns, and its
// caller keeps, holds a pooled buffer at most 25 % larger than the rank
// on every decode path, whether the pool hit or missed. The catalog's
// ranks are all under 1<<16 events, so a TRC1 rank of 70,000 events
// covers the reader's growth past its capped first draw.
func TestDecodeKeepsAQuarterSpareAtMost(t *testing.T) {
	long := trace.New("long_rank", 1)
	for j := range 70000 {
		long.Ranks[0].Events = append(long.Ranks[0].Events, trace.Event{Name: "f", Kind: trace.KindCompute,
			Enter: trace.Time(2 * j), Exit: trace.Time(2*j + 1), Peer: trace.NoPeer, Root: trace.NoPeer})
	}
	for _, tr := range append(catalogTraces(t), long) {
		var v1, v2 bytes.Buffer
		if err := trace.Encode(&v1, tr); err != nil {
			t.Fatal(err)
		}
		if err := trace.EncodeV2(&v2, tr); err != nil {
			t.Fatal(err)
		}
		for path, r := range map[string]io.Reader{
			"trc1":            bytes.NewReader(v1.Bytes()),
			"trc2-parallel":   bytes.NewReader(v2.Bytes()),
			"trc2-sequential": struct{ io.Reader }{bytes.NewReader(v2.Bytes())},
		} {
			got, err := trace.Decode(r)
			if err != nil {
				t.Fatalf("%s %s: %v", tr.Name, path, err)
			}
			for _, rt := range got.Ranks {
				if n := len(rt.Events); 4*cap(rt.Events) > 5*n {
					t.Fatalf("%s %s rank %d: %d events in a buffer of %d", tr.Name, path, rt.Rank, n, cap(rt.Events))
				}
			}
		}
	}
}

// BenchmarkEncodedSize sizes all 20 catalog traces per iteration: the
// full-trace denominator of the file-size criterion, which every scored
// cell needs. It reports the per-event cost.
func BenchmarkEncodedSize(b *testing.B) {
	traces := catalogTraces(b)
	events := 0
	for _, tr := range traces {
		events += tr.NumEvents()
	}
	b.ReportAllocs()
	for b.Loop() {
		for _, tr := range traces {
			trace.EncodedSize(tr)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*events), "ns/event")
}
