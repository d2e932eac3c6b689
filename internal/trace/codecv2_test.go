package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// streamOnly hides ReaderAt/Seeker so a decode is forced down the
// sequential path.
type streamOnly struct{ io.Reader }

// v2TestTrace builds a trace covering the v2 codec's edge shapes:
// multiple ranks, an empty rank, non-contiguous rank ids, negative
// enter deltas across segment-relative streams, large field values,
// and name reuse across ranks.
func v2TestTrace() *Trace {
	t := New("v2_codec", 4)
	t.Ranks[2].Rank = 5 // non-dense rank id survives the round trip
	for i, rt := range []*RankTrace{&t.Ranks[0], &t.Ranks[1], &t.Ranks[2]} {
		base := Time(1000 * (i + 1))
		rt.Events = append(rt.Events,
			Event{Name: "main.1", Kind: KindMarkBegin, Enter: base, Exit: base, Peer: NoPeer, Root: NoPeer},
			Event{Name: "do_work", Kind: KindCompute, Enter: base + 1, Exit: base + 900, Peer: NoPeer, Root: NoPeer},
			Event{Name: "MPI_Send", Kind: KindSend, Enter: base + 901, Exit: base + 910, Peer: int32(i + 1), Tag: 77, Bytes: 1 << 40, Root: NoPeer},
			Event{Name: "MPI_Allreduce", Kind: KindAllreduce, Enter: base + 911, Exit: base + 950, Peer: NoPeer, Bytes: 8, Root: NoPeer},
			Event{Name: "main.1", Kind: KindMarkEnd, Enter: base + 960, Exit: base + 960, Peer: NoPeer, Root: NoPeer},
		)
	}
	// Rank 3 stays empty: zero-record blocks must round-trip.
	return t
}

func encodeV2Bytes(t *testing.T, tr *Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := EncodeV2(&buf, tr); err != nil {
		t.Fatalf("EncodeV2: %v", err)
	}
	return buf.Bytes()
}

func TestEncodeV2RoundTripParallel(t *testing.T) {
	want := v2TestTrace()
	data := encodeV2Bytes(t, want)
	got, err := Decode(bytes.NewReader(data)) // bytes.Reader → parallel path
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("parallel v2 round trip changed the trace:\nwant %+v\ngot  %+v", want, got)
	}
}

func TestEncodeV2RoundTripSequential(t *testing.T) {
	want := v2TestTrace()
	data := encodeV2Bytes(t, want)
	got, err := Decode(streamOnly{bytes.NewReader(data)})
	if err != nil {
		t.Fatalf("Decode (stream): %v", err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("sequential v2 round trip changed the trace")
	}
}

func TestDecodeV2EmptyTrace(t *testing.T) {
	for _, ranks := range []int{0, 3} {
		tr := New("empty", ranks)
		data := encodeV2Bytes(t, tr)
		for name, r := range map[string]io.Reader{
			"parallel":   bytes.NewReader(data),
			"sequential": streamOnly{bytes.NewReader(data)},
		} {
			got, err := Decode(r)
			if err != nil {
				t.Fatalf("%s decode of %d-rank empty trace: %v", name, ranks, err)
			}
			if !reflect.DeepEqual(tr, got) {
				t.Errorf("%s decode of %d-rank empty trace differs", name, ranks)
			}
		}
	}
}

func TestDecoderVersionAndNameV2(t *testing.T) {
	data := encodeV2Bytes(t, v2TestTrace())
	d, err := NewDecoder(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("NewDecoder: %v", err)
	}
	defer d.Close()
	if d.Version() != 2 {
		t.Errorf("Version() = %d, want 2", d.Version())
	}
	if d.Name() != "v2_codec" {
		t.Errorf("Name() = %q", d.Name())
	}
	if d.NumRanks() != 4 {
		t.Errorf("NumRanks() = %d, want 4", d.NumRanks())
	}
}

func TestDecoderVersionV1(t *testing.T) {
	var buf bytes.Buffer
	if err := Encode(&buf, v2TestTrace()); err != nil {
		t.Fatal(err)
	}
	d, err := NewDecoder(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("NewDecoder: %v", err)
	}
	if d.Version() != 1 {
		t.Errorf("Version() = %d, want 1", d.Version())
	}
}

// TestDecodeV2AbandonedClose abandons a random-access decode mid-stream
// and closes it: Close must return at once, with nothing to wait for.
func TestDecodeV2AbandonedClose(t *testing.T) {
	data := encodeV2Bytes(t, v2TestTrace())
	d, err := NewDecoder(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.NextRank(); err != nil {
		t.Fatalf("NextRank: %v", err)
	}
	d.Close()
}

// TestDecodeV2NextRankStartsNoGoroutine: NextRank over a random-access
// container reads each block on the caller's goroutine, so the goroutine
// count stays at its baseline after every call, and after a decoder is
// dropped half-read without Close.
func TestDecodeV2NextRankStartsNoGoroutine(t *testing.T) {
	data := encodeV2Bytes(t, wideTrace(64))
	before := runtime.NumGoroutine()
	check := func(when string) {
		t.Helper()
		if n := runtime.NumGoroutine(); n > before {
			t.Fatalf("%s: %d goroutines, %d before", when, n, before)
		}
	}
	for _, stop := range []int{65, 32} {
		d, err := NewDecoder(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < stop; i++ {
			if _, err := d.NextRank(); err != nil && (err != io.EOF || i < 64) {
				t.Fatalf("rank %d: %v", i, err)
			}
			check(fmt.Sprintf("after NextRank %d of %d", i, stop))
		}
	}
	check("after dropping a decoder half-read")
}

// TestV2SmallerThanV1 pins the point of the columnar format: the varint
// delta encoding must beat the 41-byte fixed records on a realistic
// event mix.
func TestV2SmallerThanV1(t *testing.T) {
	tr := v2TestTrace()
	v1, v2 := EncodedSize(tr), int64(len(encodeV2Bytes(t, tr)))
	if v2 >= v1 {
		t.Errorf("v2 encoding (%d bytes) not smaller than v1 (%d bytes)", v2, v1)
	}
}

// TestV2SequentialParallelIdentical decodes one container through both
// paths and requires identical structures — the guarantee that lets
// openers pick the path by input capability alone.
func TestV2SequentialParallelIdentical(t *testing.T) {
	data := encodeV2Bytes(t, v2TestTrace())
	par, err := Decode(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	seq, err := Decode(streamOnly{bytes.NewReader(data)})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(par, seq) {
		t.Error("parallel and sequential decodes of the same container differ")
	}
}

// latchCase is one encoding of v2TestTrace, and a copy whose rank 0
// fails to decode.
type latchCase struct {
	name      string
	good, bad []byte
}

// latchCases returns the TRC1 and TRC2 latch cases: the corrupt TRC1
// copy's first record names an id past the name table, and the corrupt
// TRC2 copy's first block fails its checksum.
func latchCases(t *testing.T) []latchCase {
	t.Helper()
	tr := v2TestTrace()
	var v1 bytes.Buffer
	if err := Encode(&v1, tr); err != nil {
		t.Fatal(err)
	}
	rank0 := v1.Len()
	for _, rt := range tr.Ranks {
		rank0 -= 8 + len(rt.Events)*EventRecordSize
	}
	badV1 := append([]byte{}, v1.Bytes()...)
	binary.LittleEndian.PutUint32(badV1[rank0+8:], 1000)
	v2 := encodeV2Bytes(t, tr)
	badV2 := append([]byte{}, v2...)
	badV2[layoutV2(t, v2, traceMagicV2).entries[0].Offset+blockHeaderSize] ^= 0x40
	return []latchCase{
		{"TRC1", v1.Bytes(), badV1},
		{"TRC2", v2, badV2},
	}
}

// TestDecodeNextRankAfterError pins the error latch of both container
// versions: once a decode fails, every further NextRank call returns the
// same error instead of reading on.
func TestDecodeNextRankAfterError(t *testing.T) {
	for _, tc := range latchCases(t) {
		d, err := NewDecoder(bytes.NewReader(tc.bad))
		if err != nil {
			t.Fatalf("%s: NewDecoder: %v", tc.name, err)
		}
		_, first := d.NextRank()
		if first == nil {
			t.Fatalf("%s: NextRank accepted a corrupt rank", tc.name)
		}
		for i := 0; i < 3; i++ {
			if _, err := d.NextRank(); err != first {
				t.Fatalf("%s: NextRank call %d after failure = %v, want the latched %v", tc.name, i, err, first)
			}
		}
	}
}

// TestDecodeNextRankAfterClose: NextRank on a closed decoder errors, in
// both container versions.
func TestDecodeNextRankAfterClose(t *testing.T) {
	for _, tc := range latchCases(t) {
		d, err := NewDecoder(bytes.NewReader(tc.good))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.NextRank(); err != nil {
			t.Fatalf("%s: NextRank: %v", tc.name, err)
		}
		d.Close()
		if _, err := d.NextRank(); err == nil {
			t.Fatalf("%s: NextRank after Close returned nil error", tc.name)
		}
	}
}

// failRestoreReader is random-access (ReaderAt + Seeker) but refuses the
// absolute seek sectionFor uses to restore the caller's position.
type failRestoreReader struct {
	*bytes.Reader
}

var errRestore = errors.New("injected restore failure")

func (f *failRestoreReader) Seek(off int64, whence int) (int64, error) {
	if whence == io.SeekStart {
		return 0, errRestore
	}
	return f.Reader.Seek(off, whence)
}

// TestSectionForRestoreFailure pins the probe's failure contract: when
// the restoring seek fails the reader sits at EOF, so sectionFor must
// surface the seek error instead of letting callers fall through to a
// sequential decode that reports a baffling EOF.
func TestSectionForRestoreFailure(t *testing.T) {
	data := encodeV2Bytes(t, v2TestTrace())
	_, ok, err := sectionFor(&failRestoreReader{bytes.NewReader(data)})
	if ok {
		t.Fatal("sectionFor reported ok despite failed restore")
	}
	if !errors.Is(err, errRestore) {
		t.Fatalf("sectionFor error = %v, want wrapped %v", err, errRestore)
	}
	if _, err := NewDecoder(&failRestoreReader{bytes.NewReader(data)}); !errors.Is(err, errRestore) {
		t.Fatalf("NewDecoder error = %v, want wrapped %v", err, errRestore)
	}
	if err != nil && strings.Contains(err.Error(), "reading magic") {
		t.Fatalf("restore failure misreported as a read error: %v", err)
	}
}

// TestSectionForMidStream verifies the random-access prober respects a
// reader's current position: a v2 container embedded after a prefix
// still decodes when the caller has seeked past the prefix.
func TestSectionForMidStream(t *testing.T) {
	want := v2TestTrace()
	prefix := []byte("PREFIXBYTES")
	data := append(append([]byte{}, prefix...), encodeV2Bytes(t, want)...)
	r := bytes.NewReader(data)
	if _, err := r.Seek(int64(len(prefix)), io.SeekStart); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(r)
	if err != nil {
		t.Fatalf("Decode of embedded container: %v", err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Error("embedded container decode differs")
	}
}
