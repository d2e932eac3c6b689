// Cross-version codec parity. The v2 columnar containers (TRC2/TRR2)
// must be lossless re-encodings of the v1 formats: decoding a v2
// container yields structures identical to decoding the v1 container
// of the same data, for every study workload and — for reductions —
// every similarity method at default thresholds. The v2 container must
// also be smaller; the size win is the format's reason to exist.
package repro

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/trace"
)

// decodeTraceBytes decodes an encoded container of either version.
func decodeTraceBytes(t *testing.T, data []byte) *trace.Trace {
	t.Helper()
	tr, err := trace.Decode(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("decoding container: %v", err)
	}
	return tr
}

// TestCodecV2TraceParity encodes every study workload in both container
// versions and requires the decodes to be structurally identical — and
// the v2 container to be strictly smaller.
func TestCodecV2TraceParity(t *testing.T) {
	for _, workload := range eval.AllNames() {
		workload := workload
		t.Run(workload, func(t *testing.T) {
			full := parityTrace(t, workload)
			var v1, v2 bytes.Buffer
			if err := trace.Encode(&v1, full); err != nil {
				t.Fatalf("v1 encode: %v", err)
			}
			if err := trace.EncodeV2(&v2, full); err != nil {
				t.Fatalf("v2 encode: %v", err)
			}
			if v2.Len() >= v1.Len() {
				t.Errorf("v2 container (%d bytes) not smaller than v1 (%d bytes)", v2.Len(), v1.Len())
			}
			fromV1 := decodeTraceBytes(t, v1.Bytes())
			fromV2 := decodeTraceBytes(t, v2.Bytes())
			if !reflect.DeepEqual(fromV1, fromV2) {
				t.Error("v1 and v2 containers decode to different traces")
			}
		})
	}
}

// TestCodecV2ReducedParity reduces every workload with every method and
// requires the TRR1 and TRR2 containers of each reduction to decode to
// identical structures, with the v1 re-encoding of both decodes byte
// for byte equal (the canonical-form fixed point).
func TestCodecV2ReducedParity(t *testing.T) {
	for _, workload := range eval.AllNames() {
		workload := workload
		t.Run(workload, func(t *testing.T) {
			full := parityTrace(t, workload)
			for _, method := range core.MethodNames {
				p, err := core.DefaultMethod(method)
				if err != nil {
					t.Fatal(err)
				}
				red, err := core.Reduce(full, p)
				if err != nil {
					t.Fatalf("%s: Reduce: %v", method, err)
				}
				var v1, v2 bytes.Buffer
				if err := core.EncodeReduced(&v1, red, 1); err != nil {
					t.Fatalf("%s: v1 encode: %v", method, err)
				}
				if err := core.EncodeReduced(&v2, red, 2); err != nil {
					t.Fatalf("%s: v2 encode: %v", method, err)
				}
				fromV1, err := core.DecodeReduced(bytes.NewReader(v1.Bytes()))
				if err != nil {
					t.Fatalf("%s: v1 decode: %v", method, err)
				}
				fromV2, err := core.DecodeReduced(bytes.NewReader(v2.Bytes()))
				if err != nil {
					t.Fatalf("%s: v2 decode: %v", method, err)
				}
				if !reflect.DeepEqual(fromV1, fromV2) {
					t.Errorf("%s: v1 and v2 containers decode to different reductions", method)
				}
				if !bytes.Equal(encodeReduced(t, fromV1), encodeReduced(t, fromV2)) {
					t.Errorf("%s: v1 re-encodings of the two decodes differ", method)
				}
			}
		})
	}
}

// TestCodecV2ReduceFromV2Parity feeds the pipelined reduce-to-writer
// from a v2 container and requires output byte-identical to reducing
// the original trace — the guarantee that lets cmd/tracereduce accept
// either container version transparently.
func TestCodecV2ReduceFromV2Parity(t *testing.T) {
	const method = "avgWave"
	for _, workload := range eval.AllNames() {
		workload := workload
		t.Run(workload, func(t *testing.T) {
			full := parityTrace(t, workload)
			var enc bytes.Buffer
			if err := trace.EncodeV2(&enc, full); err != nil {
				t.Fatalf("v2 encode: %v", err)
			}
			d, err := trace.NewDecoder(bytes.NewReader(enc.Bytes()))
			if err != nil {
				t.Fatalf("NewDecoder: %v", err)
			}
			d.Close()
			if d.Version() != 2 {
				t.Fatalf("decoder picked version %d for a TRC2 container", d.Version())
			}
			streamed, _ := pipelineReduce(t, enc.Bytes(), method, 1, 0)
			pSeq, _ := core.DefaultMethod(method)
			ref, err := core.ReduceSequential(full, pSeq)
			if err != nil {
				t.Fatalf("ReduceSequential: %v", err)
			}
			if !bytes.Equal(streamed, encodeReduced(t, ref)) {
				t.Error("reduction streamed from the v2 container differs from the reference")
			}
		})
	}
}
