package trace

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
)

// Signature is a content hash of a trace: SHA-256 over the decoded
// events, not the container bytes, so the v1 and v2 encodings of the
// same trace share one signature. It keys the serving layer's
// representative cache — two uploads with equal signatures are the same
// trace regardless of which container they arrived in.
type Signature [sha256.Size]byte

// String returns the signature in lowercase hex.
func (s Signature) String() string { return hex.EncodeToString(s[:]) }

// IsZero reports whether s is the zero signature (no trace hashed).
func (s Signature) IsZero() bool { return s == Signature{} }

// ParseSignature parses the hex form produced by Signature.String.
func ParseSignature(text string) (Signature, error) {
	var s Signature
	b, err := hex.DecodeString(text)
	if err != nil {
		return s, fmt.Errorf("trace: parsing signature: %w", err)
	}
	if len(b) != len(s) {
		return s, fmt.Errorf("trace: signature is %d hex bytes, want %d", len(b), len(s))
	}
	copy(s[:], b)
	return s, nil
}

// SignatureOfWith decodes the trace readable from r (either container
// version) under opts (allocation caps, cancellation) and returns its
// content signature, reading one rank at a time on the caller's
// goroutine. The hash covers the workload name and every rank's events
// in rank order — name strings rather than name-table ids, so table
// layout differences between encodings cannot change the signature.
//
// The hashed stream is little-endian uint64 fields and length-prefixed
// strings, laid out as docs/SERVICE.md specifies: the workload name and
// rank count, then per rank its number and event count followed by each
// event's name, kind, enter, exit, peer, tag, bytes and root.
func SignatureOfWith(r io.Reader, opts DecoderOptions) (Signature, error) {
	var sig Signature
	d, err := NewDecoderWith(r, opts)
	if err != nil {
		return sig, err
	}
	s := signer{h: sha256.New(), buf: make([]byte, 0, signBufSize)}
	s.str(d.Name())
	s.u64(uint64(d.NumRanks()))
	for {
		rt, err := d.NextRank()
		if err == io.EOF {
			break
		}
		if err != nil {
			return sig, err
		}
		s.u64(uint64(rt.Rank))
		s.u64(uint64(len(rt.Events)))
		for i := range rt.Events {
			s.event(&rt.Events[i])
		}
		d.Recycle(rt)
	}
	s.flush()
	s.h.Sum(sig[:0])
	return sig, nil
}

// signBufSize is the scratch buffer the canonical stream is staged in:
// SHA-256 sees one large write per fill (about 900 events) instead of
// nine small writes per event.
const signBufSize = 64 << 10

// signer stages the canonical stream in buf and hands it to h whenever
// the next field would not fit.
type signer struct {
	h   hash.Hash
	buf []byte
}

func (s *signer) flush() {
	s.h.Write(s.buf)
	s.buf = s.buf[:0]
}

// reserve flushes the buffer unless n more bytes fit.
func (s *signer) reserve(n int) {
	if len(s.buf)+n > cap(s.buf) {
		s.flush()
	}
}

func (s *signer) u64(v uint64) {
	s.reserve(8)
	s.buf = binary.LittleEndian.AppendUint64(s.buf, v)
}

// str appends a length-prefixed string, so adjacent strings cannot
// collide by shifting bytes between them. A string longer than the
// whole buffer goes straight to the hash.
func (s *signer) str(v string) {
	s.u64(uint64(len(v)))
	if len(v) > cap(s.buf) {
		s.flush()
		io.WriteString(s.h, v)
		return
	}
	s.reserve(len(v))
	s.buf = append(s.buf, v...)
}

// event appends one event, with a single capacity check for its seven
// numeric fields.
func (s *signer) event(e *Event) {
	s.str(e.Name)
	s.reserve(7 * 8)
	le := binary.LittleEndian
	b := s.buf
	b = le.AppendUint64(b, uint64(e.Kind))
	b = le.AppendUint64(b, uint64(e.Enter))
	b = le.AppendUint64(b, uint64(e.Exit))
	b = le.AppendUint64(b, uint64(uint32(e.Peer)))
	b = le.AppendUint64(b, uint64(uint32(e.Tag)))
	b = le.AppendUint64(b, uint64(e.Bytes))
	b = le.AppendUint64(b, uint64(uint32(e.Root)))
	s.buf = b
}
