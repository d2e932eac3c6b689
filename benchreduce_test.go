// Reduction-engine benchmarks: the parallel streaming engine vs the
// retained sequential reference on the largest multi-rank workloads.
// Run with
//
//	go test -bench 'Reduce' -cpu 1,4
//
// to see the engine scale: at -cpu 1 the driver runs the ranks inline
// (no pool overhead); at -cpu N it runs N workers, and on hardware with
// N cores the multi-rank workloads finish correspondingly faster. The
// parity tests guarantee both paths produce byte-identical reductions.
package repro

import (
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/trace"
)

// reduceBenchWorkloads are the largest multi-rank traces in the study:
// the 32-rank interference runs and the 32-rank Sweep3D input.
var reduceBenchWorkloads = []string{"NtoN_1024", "1to1r_1024", "sweep3d_32p"}

var (
	reduceBenchOnce   sync.Once
	reduceBenchRunner *eval.Runner
)

// reduceBenchTrace generates benchmark traces on demand, cached across
// sub-benchmarks; unlike sharedRunner it skips the full-trace diagnoses
// the reduction benchmarks never need.
func reduceBenchTrace(b *testing.B, name string) *trace.Trace {
	b.Helper()
	reduceBenchOnce.Do(func() { reduceBenchRunner = eval.NewRunner() })
	full, err := reduceBenchRunner.Trace(name)
	if err != nil {
		b.Fatalf("generating %s: %v", name, err)
	}
	return full
}

// benchReduce times one engine over the benchmark workloads with the
// avgWave method (the paper's overall winner) at its default threshold.
func benchReduce(b *testing.B, reduce func(*trace.Trace, core.Policy) (*core.Reduced, error)) {
	for _, workload := range reduceBenchWorkloads {
		b.Run(workload, func(b *testing.B) {
			full := reduceBenchTrace(b, workload)
			p, err := core.DefaultMethod("avgWave")
			if err != nil {
				b.Fatal(err)
			}
			var segs int
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				red, err := reduce(full, p)
				if err != nil {
					b.Fatal(err)
				}
				segs = red.TotalSegments
			}
			b.ReportMetric(float64(segs), "segments")
		})
	}
}

// BenchmarkReduceParallel exercises the production engine: one
// RankReducer per rank on a GOMAXPROCS-bounded worker pool.
func BenchmarkReduceParallel(b *testing.B) { benchReduce(b, core.Reduce) }

// BenchmarkReduceMethods times the production engine once per similarity
// method on a large interference workload, the grid behind the matcher's
// no-regression guarantee: prepared-state and pruning wins on one method
// must not slow any other down.
func BenchmarkReduceMethods(b *testing.B) {
	full := reduceBenchTrace(b, "1to1r_1024")
	for _, method := range core.MethodNames {
		b.Run(method, func(b *testing.B) {
			p, err := core.DefaultMethod(method)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.Reduce(full, p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkReduceSequentialRef exercises the retained single-threaded
// reference path the parity tests compare against; the gap between the
// two benchmarks is the pool's speedup (or, at -cpu 1, its overhead).
func BenchmarkReduceSequentialRef(b *testing.B) { benchReduce(b, core.ReduceSequential) }

// BenchmarkFeedEvents times RankReducer.FeedEvents, the engine's fused
// split-and-match walk over one decoded rank, on one goroutine. Per
// method, one iteration reduces every rank of the 20 catalog traces,
// each with a new reducer, as a batch Reduce caller that keeps its
// reduction does. It reports ns/segment beside B/op.
func BenchmarkFeedEvents(b *testing.B) {
	var ranks []*trace.RankTrace
	segments := 0
	for _, name := range eval.AllNames() {
		full := reduceBenchTrace(b, name)
		for i := range full.Ranks {
			rt := &full.Ranks[i]
			ranks = append(ranks, rt)
			for _, e := range rt.Events {
				if e.Kind == trace.KindMarkBegin {
					segments++
				}
			}
		}
	}
	for _, method := range core.MethodNames {
		b.Run(method, func(b *testing.B) {
			p, err := core.DefaultMethod(method)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, rt := range ranks {
					if err := core.NewRankReducer(rt.Rank, p).FeedEvents(rt.Rank, rt.Events); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*segments), "ns/segment")
		})
	}
}
