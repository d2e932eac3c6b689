package trace

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"io"
	"strings"
	"testing"
)

// referenceSignature is the canonical stream of docs/SERVICE.md written
// field by field straight into SHA-256: the oracle the buffered signer
// must match byte for byte.
func referenceSignature(tr *Trace) Signature {
	h := sha256.New()
	u64 := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	str := func(s string) {
		u64(uint64(len(s)))
		io.WriteString(h, s)
	}
	str(tr.Name)
	u64(uint64(len(tr.Ranks)))
	for _, rt := range tr.Ranks {
		u64(uint64(rt.Rank))
		u64(uint64(len(rt.Events)))
		for _, e := range rt.Events {
			str(e.Name)
			u64(uint64(e.Kind))
			u64(uint64(e.Enter))
			u64(uint64(e.Exit))
			u64(uint64(uint32(e.Peer)))
			u64(uint64(uint32(e.Tag)))
			u64(uint64(e.Bytes))
			u64(uint64(uint32(e.Root)))
		}
	}
	var sig Signature
	h.Sum(sig[:0])
	return sig
}

// repeatedTrace is v2TestTrace with its one segment per rank repeated
// reps times: the same ranks and names, reps times the events.
func repeatedTrace(reps int) *Trace {
	base := v2TestTrace()
	tr := &Trace{Name: base.Name, Ranks: make([]RankTrace, len(base.Ranks))}
	for i, rt := range base.Ranks {
		tr.Ranks[i].Rank = rt.Rank
		for r := 0; r < reps; r++ {
			shift := Time(r) * 1000
			for _, e := range rt.Events {
				e.Enter += shift
				e.Exit += shift
				tr.Ranks[i].Events = append(tr.Ranks[i].Events, e)
			}
		}
	}
	return tr
}

// TestSignatureMatchesReferenceStream checks the buffered signer against
// the field-by-field oracle across buffer flushes, including a name
// longer than the whole scratch buffer, on every decode path.
func TestSignatureMatchesReferenceStream(t *testing.T) {
	long := strings.Repeat("x", signBufSize+3)
	tr := repeatedTrace(3000)
	tr.Name = "reference"
	tr.Ranks[1].Events[7].Name = long
	tr.Ranks[1].Events[8].Name = long[:signBufSize-5]
	want := referenceSignature(tr)

	var v1 bytes.Buffer
	if err := Encode(&v1, tr); err != nil {
		t.Fatal(err)
	}
	v2 := encodeV2Bytes(t, tr)
	for name, r := range map[string]io.Reader{
		"v1":            bytes.NewReader(v1.Bytes()),
		"v2-parallel":   bytes.NewReader(v2),
		"v2-sequential": streamOnly{bytes.NewReader(v2)},
	} {
		got, err := SignatureOfWith(r, DecoderOptions{Workers: 2})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got != want {
			t.Errorf("%s: signature %s, reference stream hashes to %s", name, got, want)
		}
	}
}

// TestSignatureAllocsFlatInEvents pins the signature's allocation count
// to the trace's shape, not its size: a trace with 4x the events per
// rank (same ranks, same names) may cost only a constant few more
// allocations — the first buffers growing to the larger ranks — never a
// count per event.
func TestSignatureAllocsFlatInEvents(t *testing.T) {
	const slack = 8
	small, large := repeatedTrace(500), repeatedTrace(2000)
	encodings := []struct {
		name   string
		encode func(io.Writer, *Trace) error
		open   func([]byte) io.Reader
	}{
		{"v1", Encode, func(p []byte) io.Reader { return bytes.NewReader(p) }},
		{"v2-sequential", EncodeV2, func(p []byte) io.Reader { return streamOnly{bytes.NewReader(p)} }},
	}
	for _, enc := range encodings {
		allocs := func(tr *Trace) float64 {
			var buf bytes.Buffer
			if err := enc.encode(&buf, tr); err != nil {
				t.Fatal(err)
			}
			data := buf.Bytes()
			return testing.AllocsPerRun(5, func() {
				if _, err := SignatureOfWith(enc.open(data), DecoderOptions{Workers: 1}); err != nil {
					t.Fatal(err)
				}
			})
		}
		a, b := allocs(small), allocs(large)
		t.Logf("%s: %.0f allocs for %d events, %.0f for %d", enc.name, a, small.NumEvents(), b, large.NumEvents())
		if b-a > slack {
			t.Errorf("%s: %.0f allocs for %d events but %.0f for %d: the signature allocates per event",
				enc.name, a, small.NumEvents(), b, large.NumEvents())
		}
	}
}
