package repro

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/trace"
)

// fuzzBytes hands out the fuzz input as small choices; once it is used
// up every choice is 0.
type fuzzBytes []byte

// next returns a choice in [0, n).
func (b *fuzzBytes) next(n int) int {
	if len(*b) == 0 {
		return 0
	}
	v := int((*b)[0]) % n
	*b = (*b)[1:]
	return v
}

// fuzzEngineTrace generates a trace of 1–16 ranks from b: per rank up to
// eight segments of three contexts, each holding up to five events of
// any non-marker kind with small random stamps, named from names shared
// by all ranks and one name per rank, so the reduced name table depends
// on the ranks' order. With one choice in four, one rank is then made
// malformed: a segment left open, an end without a begin, or an event
// outside any segment.
func fuzzEngineTrace(b *fuzzBytes) *trace.Trace {
	contexts := []string{"main.1", "loop.2", "io.3"}
	shared := []string{"do_work", "MPI_Send", "MPI_Recv", "MPI_Barrier"}
	tr := trace.New("fuzz_engine", 1+b.next(16))
	for r := range tr.Ranks {
		names := append(shared[:len(shared):len(shared)], fmt.Sprintf("rank%d_step", r))
		rt := &tr.Ranks[r]
		now := trace.Time(b.next(32))
		mark := func(ctx string, kind trace.EventKind) {
			rt.Events = append(rt.Events, trace.Event{Name: ctx, Kind: kind, Enter: now, Exit: now,
				Peer: trace.NoPeer, Root: trace.NoPeer})
		}
		for s := b.next(9); s > 0; s-- {
			ctx := contexts[b.next(len(contexts))]
			mark(ctx, trace.KindMarkBegin)
			for e := b.next(6); e > 0; e-- {
				now += trace.Time(b.next(4))
				ev := trace.Event{Name: names[b.next(len(names))], Kind: trace.EventKind(b.next(int(trace.KindMarkBegin))),
					Enter: now, Peer: trace.NoPeer, Root: trace.NoPeer}
				now += trace.Time(1 + b.next(64))
				ev.Exit = now
				if ev.Kind != trace.KindCompute {
					ev.Peer, ev.Tag, ev.Bytes = int32(b.next(len(tr.Ranks))), int32(b.next(4)), int64(b.next(4))<<10
				}
				rt.Events = append(rt.Events, ev)
			}
			now += trace.Time(b.next(4))
			mark(ctx, trace.KindMarkEnd)
		}
	}
	if b.next(4) == 3 {
		rt := &tr.Ranks[b.next(len(tr.Ranks))]
		kinds := []trace.EventKind{trace.KindMarkBegin, trace.KindMarkEnd, trace.KindCompute}
		rt.Events = append(rt.Events, trace.Event{Name: "bad", Kind: kinds[b.next(len(kinds))],
			Peer: trace.NoPeer, Root: trace.NoPeer})
	}
	return tr
}

// FuzzEngineParity holds every engine to the bytes of the reference:
// on a generated trace, ReduceSequential followed by EncodeReduced; Reduce
// at GOMAXPROCS 1, 2, 4 and 8; and the pipeline (ReduceStreamToWriterOpts)
// from the trace's TRC1 and TRC2 containers, each read as a plain stream
// and by random access, must write identical TRR1 and TRR2 bytes and
// report the reference's counters. On a trace with a malformed rank every
// engine must fail with the reference's error text.
func FuzzEngineParity(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 0, 15, 0, 8, 0, 5, 0, 1, 3, 1, 2, 2, 0, 4, 1, 0, 3, 3, 9, 5})
	rng := rand.New(rand.NewSource(29))
	for _, n := range []int{64, 256, 1024, 2048} {
		seed := make([]byte, n)
		rng.Read(seed)
		f.Add(seed)
	}
	// A rank left open: the last choices pick rank 0 and an open begin.
	f.Add([]byte{2, 4, 0, 0, 3, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			return // bound the trace, not a property
		}
		b := fuzzBytes(data)
		workers := 1 + b.next(8)
		method := core.MethodNames[b.next(len(core.MethodNames))]
		tr := fuzzEngineTrace(&b)
		p, err := core.DefaultMethod(method)
		if err != nil {
			t.Fatal(err)
		}
		encodeReduced := func(red *core.Reduced, version int) []byte {
			var buf bytes.Buffer
			if err := core.EncodeReduced(&buf, red, version); err != nil {
				t.Fatalf("EncodeReduced v%d: %v", version, err)
			}
			return buf.Bytes()
		}
		ref, refErr := core.ReduceSequential(tr, p)
		check := func(engine string, red *core.Reduced, st *core.StreamStats, version int, got []byte, err error) {
			t.Helper()
			if refErr != nil {
				if err == nil || err.Error() != refErr.Error() {
					t.Fatalf("%s %s: error %v, want the reference's %v", method, engine, err, refErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("%s %s: %v", method, engine, err)
			}
			if want := encodeReduced(ref, version); !bytes.Equal(got, want) {
				t.Fatalf("%s %s: TRR%d differs from the reference's (%d vs %d bytes)", method, engine, version, len(got), len(want))
			}
			if red != nil && (red.TotalSegments != ref.TotalSegments || red.Matches != ref.Matches ||
				red.PossibleMatches != ref.PossibleMatches) {
				t.Fatalf("%s %s: counters %d/%d/%d, want %d/%d/%d", method, engine,
					red.TotalSegments, red.Matches, red.PossibleMatches, ref.TotalSegments, ref.Matches, ref.PossibleMatches)
			}
			if st != nil && (st.Ranks != len(ref.Ranks) || st.TotalSegments != ref.TotalSegments || st.Matches != ref.Matches ||
				st.PossibleMatches != ref.PossibleMatches || st.StoredSegments != ref.StoredSegments() ||
				st.BytesWritten != int64(len(got))) {
				t.Fatalf("%s %s: stats %+v disagree with the reference", method, engine, st)
			}
		}

		prev := runtime.GOMAXPROCS(0)
		defer runtime.GOMAXPROCS(prev)
		for _, procs := range []int{1, 2, 4, 8} {
			runtime.GOMAXPROCS(procs)
			red, err := core.Reduce(tr, p)
			for _, version := range []int{1, 2} {
				var got []byte
				if err == nil {
					got = encodeReduced(red, version)
				}
				check(fmt.Sprintf("Reduce GOMAXPROCS=%d", procs), red, nil, version, got, err)
			}
		}
		runtime.GOMAXPROCS(prev)

		for _, in := range []int{1, 2} {
			var enc bytes.Buffer
			encode := trace.Encode
			if in == 2 {
				encode = trace.EncodeV2
			}
			if err := encode(&enc, tr); err != nil {
				t.Fatal(err)
			}
			for _, access := range []string{"stream", "random-access"} {
				for _, version := range []int{1, 2} {
					var r io.Reader = bytes.NewReader(enc.Bytes())
					if access == "stream" {
						r = struct{ io.Reader }{r}
					}
					d, err := trace.NewDecoder(r)
					if err != nil {
						t.Fatal(err)
					}
					var out bytes.Buffer
					st, err := core.ReduceStreamToWriterOpts(d, p, &out, version, core.StreamOptions{Workers: workers})
					engine := fmt.Sprintf("pipeline TRC%d %s workers=%d", in, access, workers)
					check(engine, nil, st, version, out.Bytes(), err)
					if err != nil && out.Len() != 0 {
						t.Fatalf("%s %s: the failed run wrote %d bytes", method, engine, out.Len())
					}
				}
			}
		}
	})
}
