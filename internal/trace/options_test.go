package trace

import (
	"bytes"
	"context"
	"errors"
	"io"
	"strings"
	"testing"
)

// decodeAll drains a decoder, returning the first error (nil after a
// clean io.EOF).
func decodeAll(d *Decoder) error {
	defer d.Close()
	for {
		_, err := d.NextRank()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

func TestDecodeLimitsRejectOversizedHeader(t *testing.T) {
	tr := v2TestTrace() // 4 ranks, 4 names
	var v1 bytes.Buffer
	if err := Encode(&v1, tr); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	v2 := encodeV2Bytes(t, tr)

	cases := []struct {
		name   string
		data   []byte
		random bool // random-access (v2 parallel) vs plain stream
		limits DecodeLimits
		want   string
	}{
		{"v1 rank cap", v1.Bytes(), false, DecodeLimits{MaxRanks: 2}, "rank count"},
		{"v1 name cap", v1.Bytes(), false, DecodeLimits{MaxNames: 1}, "name table"},
		{"v1 string cap", v1.Bytes(), false, DecodeLimits{MaxStringLen: 3}, "cap"},
		{"v2 parallel rank cap", v2, true, DecodeLimits{MaxRanks: 2}, "rank count"},
		{"v2 parallel name cap", v2, true, DecodeLimits{MaxNames: 1}, "name table"},
		{"v2 sequential rank cap", v2, false, DecodeLimits{MaxRanks: 2}, "rank count"},
		{"v2 sequential string cap", v2, false, DecodeLimits{MaxStringLen: 3}, "cap"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var r io.Reader = bytes.NewReader(tc.data)
			if !tc.random {
				r = streamOnly{r}
			}
			d, err := NewDecoderWith(r, DecoderOptions{Limits: tc.limits})
			if err == nil {
				err = decodeAll(d)
			}
			if err == nil {
				t.Fatalf("decode succeeded despite limits %+v", tc.limits)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestDecodeLimitsZeroValueKeepsDefaults(t *testing.T) {
	tr := v2TestTrace()
	for _, data := range [][]byte{encodeV2Bytes(t, tr)} {
		d, err := NewDecoderWith(bytes.NewReader(data), DecoderOptions{})
		if err != nil {
			t.Fatalf("NewDecoderWith: %v", err)
		}
		if err := decodeAll(d); err != nil {
			t.Fatalf("decode with zero limits: %v", err)
		}
	}
}

// wideTrace builds a trace with many small ranks so a decode has blocks
// left to read when it is cancelled mid-stream.
func wideTrace(ranks int) *Trace {
	tr := New("cancel_me", ranks)
	for i := range tr.Ranks {
		base := Time(100 * (i + 1))
		tr.Ranks[i].Events = append(tr.Ranks[i].Events,
			Event{Name: "main.1", Kind: KindMarkBegin, Enter: base, Exit: base, Peer: NoPeer, Root: NoPeer},
			Event{Name: "do_work", Kind: KindCompute, Enter: base + 1, Exit: base + 50, Peer: NoPeer, Root: NoPeer},
			Event{Name: "main.1", Kind: KindMarkEnd, Enter: base + 60, Exit: base + 60, Peer: NoPeer, Root: NoPeer},
		)
	}
	return tr
}

func TestDecodeCancelledMidStream(t *testing.T) {
	data := encodeV2Bytes(t, wideTrace(64))
	t.Run("parallel", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		d, err := NewDecoderWith(bytes.NewReader(data), DecoderOptions{Ctx: ctx})
		if err != nil {
			t.Fatalf("NewDecoderWith: %v", err)
		}
		defer d.Close()
		if _, err := d.NextRank(); err != nil {
			t.Fatalf("first NextRank: %v", err)
		}
		cancel()
		err = nil
		for i := 0; i < 64 && err == nil; i++ {
			_, err = d.NextRank()
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("NextRank after cancel = %v, want context.Canceled", err)
		}
		// The error must be latched: later calls fail the same way.
		if _, err := d.NextRank(); !errors.Is(err, context.Canceled) {
			t.Errorf("latched error = %v, want context.Canceled", err)
		}
	})
	t.Run("sequential", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		d, err := NewDecoderWith(streamOnly{bytes.NewReader(data)}, DecoderOptions{Ctx: ctx})
		if err != nil {
			t.Fatalf("NewDecoderWith: %v", err)
		}
		if _, err := d.NextRank(); err != nil {
			t.Fatalf("first NextRank: %v", err)
		}
		cancel()
		if _, err := d.NextRank(); !errors.Is(err, context.Canceled) {
			t.Fatalf("NextRank after cancel = %v, want context.Canceled", err)
		}
	})
	t.Run("v1", func(t *testing.T) {
		var v1 bytes.Buffer
		if err := Encode(&v1, wideTrace(8)); err != nil {
			t.Fatalf("Encode: %v", err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		d, err := NewDecoderWith(streamOnly{bytes.NewReader(v1.Bytes())}, DecoderOptions{Ctx: ctx})
		if err != nil {
			t.Fatalf("NewDecoderWith: %v", err)
		}
		if _, err := d.NextRank(); err != nil {
			t.Fatalf("first NextRank: %v", err)
		}
		cancel()
		if _, err := d.NextRank(); !errors.Is(err, context.Canceled) {
			t.Fatalf("NextRank after cancel = %v, want context.Canceled", err)
		}
	})
}

func TestSignatureStableAcrossFormats(t *testing.T) {
	tr := v2TestTrace()
	var v1 bytes.Buffer
	if err := Encode(&v1, tr); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	v2 := encodeV2Bytes(t, tr)

	sigV1, err := SignatureOfWith(bytes.NewReader(v1.Bytes()), DecoderOptions{})
	if err != nil {
		t.Fatalf("SignatureOfWith(v1, DecoderOptions{}): %v", err)
	}
	sigV2, err := SignatureOfWith(bytes.NewReader(v2), DecoderOptions{})
	if err != nil {
		t.Fatalf("SignatureOfWith(v2, DecoderOptions{}): %v", err)
	}
	sigV2Seq, err := SignatureOfWith(streamOnly{bytes.NewReader(v2)}, DecoderOptions{})
	if err != nil {
		t.Fatalf("SignatureOfWith(v2 stream, DecoderOptions{}): %v", err)
	}
	if sigV1 != sigV2 || sigV1 != sigV2Seq {
		t.Fatalf("signatures differ across encodings: v1=%s v2=%s v2seq=%s", sigV1, sigV2, sigV2Seq)
	}
	if sigV1.IsZero() {
		t.Fatal("signature of a non-empty trace is zero")
	}

	// A one-field change to one event must change the signature.
	mod := v2TestTrace()
	mod.Ranks[1].Events[2].Bytes++
	var modBuf bytes.Buffer
	if err := Encode(&modBuf, mod); err != nil {
		t.Fatalf("Encode(mod): %v", err)
	}
	sigMod, err := SignatureOfWith(bytes.NewReader(modBuf.Bytes()), DecoderOptions{})
	if err != nil {
		t.Fatalf("SignatureOfWith(mod, DecoderOptions{}): %v", err)
	}
	if sigMod == sigV1 {
		t.Fatal("signature did not change when an event changed")
	}

	// Round trip through the hex form.
	parsed, err := ParseSignature(sigV1.String())
	if err != nil {
		t.Fatalf("ParseSignature: %v", err)
	}
	if parsed != sigV1 {
		t.Fatalf("ParseSignature(%s) = %s", sigV1, parsed)
	}
	if _, err := ParseSignature("zz"); err == nil {
		t.Fatal("ParseSignature accepted junk")
	}
}
