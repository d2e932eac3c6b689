// Pipelined-vs-batch parity. ReduceStreamToWriterOpts overlaps decode,
// reduction, and encode, but its output must be byte-identical to
// encoding the batch reduction — for every study workload, every
// similarity method, and both container versions. This is the grid-wide
// guarantee that lets cmd/tracereduce switch to the pipelined path
// without changing a single output byte.
package repro

import (
	"bytes"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/trace"
)

// growBuffer is a bytes.Buffer that records the size it is asked to
// grow by: the pipeline grows such a destination by the container size
// it computes before writing.
type growBuffer struct {
	bytes.Buffer
	grown int
}

func (g *growBuffer) Grow(n int) {
	g.grown = n
	g.Buffer.Grow(n)
}

// pipelineReduce decodes the trace container enc and runs it through
// the pipelined reduce-to-writer with the named method on the given
// number of workers (non-positive: GOMAXPROCS), returning the reduced
// container of the given version and the run's stats. The size the
// destination was grown by must be the size written.
func pipelineReduce(t *testing.T, enc []byte, method string, version, workers int) ([]byte, *core.StreamStats) {
	t.Helper()
	d, err := trace.NewDecoder(bytes.NewReader(enc))
	if err != nil {
		t.Fatalf("NewDecoder: %v", err)
	}
	defer d.Close()
	p, err := core.DefaultMethod(method)
	if err != nil {
		t.Fatal(err)
	}
	var out growBuffer
	stats, err := core.ReduceStreamToWriterOpts(d, p, &out, version, core.StreamOptions{Workers: workers})
	if err != nil {
		t.Fatalf("%s v%d: ReduceStreamToWriterOpts: %v", method, version, err)
	}
	if int64(out.grown) != stats.BytesWritten || int64(out.Len()) != stats.BytesWritten {
		t.Errorf("%s v%d: destination grown by %d bytes, %d written, %d counted",
			method, version, out.grown, out.Len(), stats.BytesWritten)
	}
	return out.Bytes(), stats
}

// TestPipelineReducedParity runs the full 20-workload × 9-method grid
// through the pipelined reduce-to-writer path in both container
// versions, each decoded from a trace container of the same version, and
// requires byte identity with the batch encoding, plus counter agreement
// in the returned stats and a destination grown by exactly the bytes
// written.
func TestPipelineReducedParity(t *testing.T) {
	// Force a real worker pool so ranks finish out of turn and are
	// parked in the encoding sink even on a single-CPU machine.
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	for _, workload := range eval.AllNames() {
		workload := workload
		t.Run(workload, func(t *testing.T) {
			full := parityTrace(t, workload)
			var v1, v2 bytes.Buffer
			if err := trace.Encode(&v1, full); err != nil {
				t.Fatal(err)
			}
			if err := trace.EncodeV2(&v2, full); err != nil {
				t.Fatal(err)
			}
			encoded := map[int][]byte{1: v1.Bytes(), 2: v2.Bytes()}
			for _, method := range core.MethodNames {
				p, err := core.DefaultMethod(method)
				if err != nil {
					t.Fatal(err)
				}
				red, err := core.Reduce(full, p)
				if err != nil {
					t.Fatalf("%s: Reduce: %v", method, err)
				}
				for _, version := range []int{1, 2} {
					var want bytes.Buffer
					if err := core.EncodeReduced(&want, red, version); err != nil {
						t.Fatalf("%s v%d: batch encode: %v", method, version, err)
					}
					got, stats := pipelineReduce(t, encoded[version], method, version, 0)
					if !bytes.Equal(want.Bytes(), got) {
						t.Errorf("%s v%d: pipelined container differs from batch (%d vs %d bytes)",
							method, version, len(got), want.Len())
					}
					if stats.TotalSegments != red.TotalSegments ||
						stats.Matches != red.Matches ||
						stats.PossibleMatches != red.PossibleMatches ||
						stats.StoredSegments != red.StoredSegments() {
						t.Errorf("%s v%d: stats %+v disagree with batch counters", method, version, stats)
					}
				}
			}
		})
	}
}

// TestPipelineReuseParity reduces one trace whose ranks come from
// different catalog traces, with an empty rank among them, through the
// pipeline at 1 and 2 workers, from TRC1 (read in order) and TRC2 (read
// by index) into TRR1 and TRR2. Each run must write the bytes of
// ReduceSequential followed by EncodeReduced. At 1 worker, one reused
// reducer serves every rank in turn, so a class, representative or
// predecessor class left over from one rank would show in the next;
// at 2, ranks park and their pooled storage passes between workers.
func TestPipelineReuseParity(t *testing.T) {
	mixed := trace.New("mixed", 0)
	for k, workload := range eval.AllNames() {
		if k == 7 {
			mixed.Ranks = append(mixed.Ranks, trace.RankTrace{Rank: len(mixed.Ranks)})
		}
		src := parityTrace(t, workload)
		rt := src.Ranks[k%len(src.Ranks)]
		mixed.Ranks = append(mixed.Ranks, trace.RankTrace{Rank: len(mixed.Ranks), Events: slices.Clone(rt.Events)})
	}
	var v1, v2 bytes.Buffer
	if err := trace.Encode(&v1, mixed); err != nil {
		t.Fatal(err)
	}
	if err := trace.EncodeV2(&v2, mixed); err != nil {
		t.Fatal(err)
	}
	for _, method := range core.MethodNames {
		p, err := core.DefaultMethod(method)
		if err != nil {
			t.Fatal(err)
		}
		red, err := core.ReduceSequential(mixed, p)
		if err != nil {
			t.Fatalf("%s: ReduceSequential: %v", method, err)
		}
		for _, version := range []int{1, 2} {
			var want bytes.Buffer
			if err := core.EncodeReduced(&want, red, version); err != nil {
				t.Fatal(err)
			}
			for _, in := range []*bytes.Buffer{&v1, &v2} {
				for _, workers := range []int{1, 2} {
					got, stats := pipelineReduce(t, in.Bytes(), method, version, workers)
					if !bytes.Equal(got, want.Bytes()) {
						t.Errorf("%s: TRC%d -> TRR%d at %d workers: %d bytes differ from the sequential reduction's %d",
							method, in.Bytes()[3]-'0', version, workers, len(got), want.Len())
					}
					if stats.TotalSegments != red.TotalSegments || stats.Matches != red.Matches ||
						stats.PossibleMatches != red.PossibleMatches || stats.StoredSegments != red.StoredSegments() {
						t.Errorf("%s: TRC%d -> TRR%d at %d workers: stats %+v disagree with the sequential counters",
							method, in.Bytes()[3]-'0', version, workers, stats)
					}
				}
			}
		}
	}
}

// TestRandomAccessDecodeParity holds the batch decoders' fan-out to
// their in-order stream path: for every catalog trace, its TRC2
// container decoded by index from a bytes.Reader equals the same
// container decoded as a plain stream, and so does each of its nine
// TRR2 reductions through DecodeReducedWith.
func TestRandomAccessDecodeParity(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	for _, workload := range eval.AllNames() {
		full := parityTrace(t, workload)
		var enc bytes.Buffer
		if err := trace.EncodeV2(&enc, full); err != nil {
			t.Fatal(err)
		}
		indexed, err := trace.Decode(bytes.NewReader(enc.Bytes()))
		if err != nil {
			t.Fatalf("%s: random-access decode: %v", workload, err)
		}
		streamed, err := trace.Decode(seqReader{bytes.NewReader(enc.Bytes())})
		if err != nil {
			t.Fatalf("%s: stream decode: %v", workload, err)
		}
		if !reflect.DeepEqual(indexed, streamed) {
			t.Errorf("%s: the TRC2 container decodes differently by index and as a stream", workload)
		}
		for _, method := range core.MethodNames {
			p, err := core.DefaultMethod(method)
			if err != nil {
				t.Fatal(err)
			}
			red, err := core.Reduce(full, p)
			if err != nil {
				t.Fatalf("%s/%s: Reduce: %v", workload, method, err)
			}
			var out bytes.Buffer
			if err := core.EncodeReduced(&out, red, 2); err != nil {
				t.Fatal(err)
			}
			indexed, err := core.DecodeReducedWith(bytes.NewReader(out.Bytes()), trace.DecoderOptions{})
			if err != nil {
				t.Fatalf("%s/%s: random-access decode: %v", workload, method, err)
			}
			streamed, err := core.DecodeReducedWith(seqReader{bytes.NewReader(out.Bytes())}, trace.DecoderOptions{})
			if err != nil {
				t.Fatalf("%s/%s: stream decode: %v", workload, method, err)
			}
			if !reflect.DeepEqual(indexed, streamed) {
				t.Errorf("%s/%s: the TRR2 container decodes differently by index and as a stream", workload, method)
			}
		}
	}
}
