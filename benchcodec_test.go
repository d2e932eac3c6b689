// Codec benchmarks: the two container versions head to head on a
// mid-size workload — encode and decode (v2 read in order from a stream
// and from a random-access input, and fanned out by index), the size
// ratio, and the pipelined reduce-to-writer path against the batch
// reduce-then-encode path. The
// container sizes of all 20 catalog traces are deterministic, so they
// are pinned by TestGoldenCatalogContainers rather than measured here.
package repro

import (
	"bytes"
	"crypto/sha256"
	"io"
	"testing"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/trace"
)

// benchCodecTrace is the workload the codec benchmarks encode: enough
// ranks for the fanned-out decode to have work to spread.
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
		for i := 0; i < b.N; i++ {
			if err := trace.EncodeV2(io.Discard, full); err != nil {
				b.Fatal(err)
			}
		}
	})
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
	b.Run("v2-nextrank", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			d, err := trace.NewDecoder(bytes.NewReader(v2.Bytes()))
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
		}
	})
	b.Run("v2-readall", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := trace.Decode(bytes.NewReader(v2.Bytes())); err != nil {
				b.Fatal(err)
			}
		}
	})
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
	if err := core.EncodeReduced(&v1, red, 1); err != nil {
		b.Fatal(err)
	}
	if err := core.EncodeReduced(&v2, red, 2); err != nil {
		b.Fatal(err)
	}
	b.Run("encode-v1", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := core.EncodeReduced(io.Discard, red, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encode-v2", func(b *testing.B) {
		b.ReportAllocs()
		b.ReportMetric(float64(v2.Len())/float64(v1.Len()), "size-ratio")
		for i := 0; i < b.N; i++ {
			if err := core.EncodeReduced(io.Discard, red, 2); err != nil {
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
// TRR2 path both ways: batch (decode the full trace, reduce it into a
// full Reduced, then encode it) against the pipelined
// ReduceStreamToWriterOpts, which overlaps decode and reduction and
// never materializes the full trace.
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
			tr, err := trace.Decode(bytes.NewReader(trc2.Bytes()))
			if err != nil {
				b.Fatal(err)
			}
			p, err := core.DefaultMethod("avgWave")
			if err != nil {
				b.Fatal(err)
			}
			red, err := core.Reduce(tr, p)
			if err != nil {
				b.Fatal(err)
			}
			if err := core.EncodeReduced(io.Discard, red, 2); err != nil {
				b.Fatal(err)
			}
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
			if _, err := core.ReduceStreamToWriterOpts(d, p, io.Discard, 2, core.StreamOptions{}); err != nil {
				b.Fatal(err)
			}
			d.Close()
		}
	})
}

// BenchmarkTraceSignature signs all 20 catalog traces per iteration on
// each decode path — the cost a service upload pays before the cache is
// consulted, unless the same bytes were signed before — and digests
// their containers, the cost a repeat upload pays instead. It reports
// the per-event cost, since the traces span two orders of magnitude in
// size.
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
		{"v2-random-access", v2s, func(p []byte) io.Reader { return bytes.NewReader(p) }},
		{"v2-stream", v2s, func(p []byte) io.Reader { return seqReader{bytes.NewReader(p)} }},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, src := range c.srcs {
					if _, err := trace.SignatureOfWith(c.open(src), trace.DecoderOptions{}); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*events), "ns/event")
		})
	}
	// The service recognises a repeat upload by the SHA-256 of its
	// container bytes alone, which its signature memo maps back to the
	// signature.
	for _, c := range []struct {
		name string
		srcs [][]byte
	}{{"digest-v1", v1s}, {"digest-v2", v2s}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, src := range c.srcs {
					uploadDigest = sha256.Sum256(src)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*events), "ns/event")
		})
	}
}

// uploadDigest keeps BenchmarkTraceSignature's digests live.
var uploadDigest [sha256.Size]byte
