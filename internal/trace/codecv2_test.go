package trace

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"
	"time"
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

// TestDecodeV2WorkerCounts decodes the same container under several
// worker-pool sizes; all must agree with the single-worker result.
func TestDecodeV2WorkerCounts(t *testing.T) {
	want := v2TestTrace()
	data := encodeV2Bytes(t, want)
	for _, workers := range []int{1, 2, 3, 7, 64} {
		d, err := NewDecoderWith(bytes.NewReader(data), DecoderOptions{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: NewDecoderWith: %v", workers, err)
		}
		got := &Trace{Name: d.Name()}
		for {
			rt, err := d.NextRank()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("workers=%d: NextRank: %v", workers, err)
			}
			got.Ranks = append(got.Ranks, *rt)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("workers=%d: decoded trace differs", workers)
		}
	}
}

// TestDecodeV2AbandonedClose abandons a parallel decode mid-stream and
// closes it; the decoder must release its workers without deadlocking
// (the race detector would flag unsynchronized worker exits).
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

// TestV2SmallerThanV1 pins the point of the columnar format: the varint
// delta encoding must beat the 41-byte fixed records on a realistic
// event mix.
func TestV2SmallerThanV1(t *testing.T) {
	tr := v2TestTrace()
	v1, v2 := EncodedSize(tr), EncodedSizeV2(tr)
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

// nextRankTimeout calls d.NextRank with a watchdog so a regression that
// wedges the parallel pipeline fails the test instead of hanging it.
func nextRankTimeout(t *testing.T, d *Decoder) (*RankTrace, error) {
	t.Helper()
	type out struct {
		rt  *RankTrace
		err error
	}
	ch := make(chan out, 1)
	go func() {
		rt, err := d.NextRank()
		ch <- out{rt, err}
	}()
	select {
	case o := <-ch:
		return o.rt, o.err
	case <-time.After(30 * time.Second):
		t.Fatal("NextRank blocked: parallel decode pipeline wedged")
		return nil, nil
	}
}

// TestDecodeV2ManyRanksFewWorkers floods a small worker pool with many
// blocks. The worker loop must take an in-flight slot before claiming an
// index — claim-first lets later claimants fill every slot while the
// lowest claimant starves, wedging the in-order consumer.
func TestDecodeV2ManyRanksFewWorkers(t *testing.T) {
	const nRanks = 64
	want := New("stress", nRanks)
	for i := range want.Ranks {
		base := Time(10 * (i + 1))
		want.Ranks[i].Events = append(want.Ranks[i].Events,
			Event{Name: "work", Kind: KindCompute, Enter: base, Exit: base + 5, Peer: NoPeer, Root: NoPeer},
		)
	}
	data := encodeV2Bytes(t, want)
	for _, workers := range []int{1, 2, 3} {
		for iter := 0; iter < 8; iter++ {
			d, err := NewDecoderWith(bytes.NewReader(data), DecoderOptions{Workers: workers})
			if err != nil {
				t.Fatalf("workers=%d: NewDecoderWith: %v", workers, err)
			}
			got := &Trace{Name: d.Name()}
			for {
				rt, err := nextRankTimeout(t, d)
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatalf("workers=%d: NextRank: %v", workers, err)
				}
				got.Ranks = append(got.Ranks, *rt)
			}
			d.Close()
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("workers=%d iter=%d: decoded trace differs", workers, iter)
			}
		}
	}
}

// TestDecodeV2NextRankAfterError pins the error latch: once a parallel
// decode fails, further NextRank calls must return an error immediately
// rather than blocking on result channels no worker will ever fill.
func TestDecodeV2NextRankAfterError(t *testing.T) {
	data := encodeV2Bytes(t, v2TestTrace())
	l := layoutV2(t, data, traceMagicV2)
	corrupt := append([]byte{}, data...)
	corrupt[l.entries[0].Offset+blockHeaderSize] ^= 0x40 // break block 0's checksum
	d, err := NewDecoderWith(bytes.NewReader(corrupt), DecoderOptions{Workers: 2})
	if err != nil {
		t.Fatalf("NewDecoderWith: %v", err)
	}
	if _, err := nextRankTimeout(t, d); err == nil {
		t.Fatal("NextRank accepted a corrupt block")
	}
	for i := 0; i < 3; i++ {
		if _, err := nextRankTimeout(t, d); err == nil {
			t.Fatalf("NextRank call %d after failure returned nil error", i)
		}
	}
}

// TestDecodeV2NextRankAfterClose: NextRank on a closed decoder must
// error promptly, not wait on aborted workers.
func TestDecodeV2NextRankAfterClose(t *testing.T) {
	data := encodeV2Bytes(t, v2TestTrace())
	d, err := NewDecoder(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nextRankTimeout(t, d); err != nil {
		t.Fatalf("NextRank: %v", err)
	}
	d.Close()
	if _, err := nextRankTimeout(t, d); err == nil {
		t.Fatal("NextRank after Close returned nil error")
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
