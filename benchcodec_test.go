// Codec benchmarks: the two container versions head to head on a
// mid-size workload — encode and decode (v2 both sequential and
// block-parallel per worker count), the size ratio, and the pipelined
// reduce-to-writer path against the batch reduce-then-encode path. The
// container sizes of all 20 catalog traces are deterministic, so they
// are pinned by TestGoldenCatalogContainers rather than measured here.
package repro

import (
	"bytes"
	"fmt"
	"io"
	"testing"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/trace"
)

// benchCodecTrace is the workload the codec benchmarks encode: enough
// ranks for block-parallel decode to have work to spread.
const benchCodecTrace = "sweep3d_32p"

// seqReader hides ReaderAt/Seeker so a v2 decode takes the stream path.
type seqReader struct{ io.Reader }

func BenchmarkCodecEncode(b *testing.B) {
	full, err := sharedRunner(b).Trace(benchCodecTrace)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("v1", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := trace.Encode(io.Discard, full); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("v2", func(b *testing.B) {
		b.ReportAllocs()
		b.ReportMetric(float64(trace.EncodedSizeV2(full))/float64(trace.EncodedSize(full)), "size-ratio")
		for i := 0; i < b.N; i++ {
			if err := trace.EncodeV2(io.Discard, full); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("v2-parallel-w%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				err := trace.EncodeV2With(io.Discard, full, trace.EncoderOptions{Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkCodecDecode(b *testing.B) {
	full, err := sharedRunner(b).Trace(benchCodecTrace)
	if err != nil {
		b.Fatal(err)
	}
	var v1, v2 bytes.Buffer
	if err := trace.Encode(&v1, full); err != nil {
		b.Fatal(err)
	}
	if err := trace.EncodeV2(&v2, full); err != nil {
		b.Fatal(err)
	}
	b.Run("v1", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := trace.Decode(bytes.NewReader(v1.Bytes())); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("v2-stream", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := trace.Decode(seqReader{bytes.NewReader(v2.Bytes())}); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("v2-parallel-w%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				d, err := trace.NewDecoderWith(bytes.NewReader(v2.Bytes()),
					trace.DecoderOptions{Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				for {
					if _, err := d.NextRank(); err == io.EOF {
						break
					} else if err != nil {
						b.Fatal(err)
					}
				}
				d.Close()
			}
		})
	}
}

func BenchmarkCodecReducedRoundTrip(b *testing.B) {
	full, err := sharedRunner(b).Trace(benchCodecTrace)
	if err != nil {
		b.Fatal(err)
	}
	p, err := core.DefaultMethod("avgWave")
	if err != nil {
		b.Fatal(err)
	}
	red, err := core.Reduce(full, p)
	if err != nil {
		b.Fatal(err)
	}
	var v1, v2 bytes.Buffer
	if err := core.EncodeReduced(&v1, red); err != nil {
		b.Fatal(err)
	}
	if err := core.EncodeReducedV2(&v2, red); err != nil {
		b.Fatal(err)
	}
	b.Run("encode-v1", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := core.EncodeReduced(io.Discard, red); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encode-v2", func(b *testing.B) {
		b.ReportAllocs()
		b.ReportMetric(float64(v2.Len())/float64(v1.Len()), "size-ratio")
		for i := 0; i < b.N; i++ {
			if err := core.EncodeReducedV2(io.Discard, red); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode-v1", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.DecodeReduced(bytes.NewReader(v1.Bytes())); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode-v2", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.DecodeReduced(bytes.NewReader(v2.Bytes())); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkPipelineReduce measures the end-to-end TRC2 -> reduce ->
// TRR2 path both ways: batch (stream-reduce into a full Reduced, then
// encode it) against the pipelined ReduceStreamToWriter, which overlaps
// decode, reduction, and encode and never materializes the Reduced.
func BenchmarkPipelineReduce(b *testing.B) {
	full, err := sharedRunner(b).Trace(benchCodecTrace)
	if err != nil {
		b.Fatal(err)
	}
	var trc2 bytes.Buffer
	if err := trace.EncodeV2(&trc2, full); err != nil {
		b.Fatal(err)
	}
	b.Run("batch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			d, err := trace.NewDecoder(bytes.NewReader(trc2.Bytes()))
			if err != nil {
				b.Fatal(err)
			}
			p, err := core.DefaultMethod("avgWave")
			if err != nil {
				b.Fatal(err)
			}
			red, err := core.ReduceStream(d.Name(), p, d.NextRank)
			if err != nil {
				b.Fatal(err)
			}
			if err := core.EncodeReducedV2With(io.Discard, red, trace.EncoderOptions{}); err != nil {
				b.Fatal(err)
			}
			d.Close()
		}
	})
	b.Run("pipelined", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			d, err := trace.NewDecoder(bytes.NewReader(trc2.Bytes()))
			if err != nil {
				b.Fatal(err)
			}
			p, err := core.DefaultMethod("avgWave")
			if err != nil {
				b.Fatal(err)
			}
			if _, err := core.ReduceStreamToWriter(d.Name(), p, d.NextRank, io.Discard, 2); err != nil {
				b.Fatal(err)
			}
			d.Close()
		}
	})
}

// BenchmarkTraceSignature signs all 20 catalog traces per iteration on
// each decode path — the cost every service upload pays, hit or miss,
// before the cache is consulted. It reports the per-event cost, since
// the traces span two orders of magnitude in size.
func BenchmarkTraceSignature(b *testing.B) {
	r := sharedRunner(b)
	var v1s, v2s [][]byte
	events := 0
	for _, name := range eval.AllNames() {
		full, err := r.Trace(name)
		if err != nil {
			b.Fatal(err)
		}
		var v1, v2 bytes.Buffer
		if err := trace.Encode(&v1, full); err != nil {
			b.Fatal(err)
		}
		if err := trace.EncodeV2(&v2, full); err != nil {
			b.Fatal(err)
		}
		v1s, v2s = append(v1s, v1.Bytes()), append(v2s, v2.Bytes())
		events += full.NumEvents()
	}
	for _, c := range []struct {
		name string
		srcs [][]byte
		open func([]byte) io.Reader
	}{
		{"v1", v1s, func(p []byte) io.Reader { return bytes.NewReader(p) }},
		{"v2-parallel", v2s, func(p []byte) io.Reader { return bytes.NewReader(p) }},
		{"v2-stream", v2s, func(p []byte) io.Reader { return seqReader{bytes.NewReader(p)} }},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, src := range c.srcs {
					if _, err := trace.SignatureOfWith(c.open(src), trace.DecoderOptions{Workers: 1}); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*events), "ns/event")
		})
	}
}
