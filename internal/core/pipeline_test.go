package core

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"testing"
	"testing/iotest"
	"time"

	"repro/internal/trace"
)

// encodeTrace returns tr's TRC1 container.
func encodeTrace(t testing.TB, tr *trace.Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.Encode(&buf, tr); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// openDecoder opens a decoder over the trace container r yields.
func openDecoder(t testing.TB, r io.Reader, opts trace.DecoderOptions) *trace.Decoder {
	t.Helper()
	d, err := trace.NewDecoderWith(r, opts)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// decoderOf returns a decoder over tr's TRC1 container.
func decoderOf(t testing.TB, tr *trace.Trace) *trace.Decoder {
	t.Helper()
	return openDecoder(t, bytes.NewReader(encodeTrace(t, tr)), trace.DecoderOptions{})
}

// failingFrom returns a reader over tr's TRC1 container that fails with
// err where rank k's section starts, so a decoder yields ranks 0..k-1
// and then err.
func failingFrom(t testing.TB, tr *trace.Trace, k int, err error) io.Reader {
	t.Helper()
	enc := encodeTrace(t, tr)
	cut := len(enc)
	for _, rt := range tr.Ranks[k:] {
		cut -= 8 + len(rt.Events)*trace.EventRecordSize
	}
	return io.MultiReader(bytes.NewReader(enc[:cut]), iotest.ErrReader(err))
}

// forceWorkers raises GOMAXPROCS for the test so the pipeline actually
// runs multiple workers, reducing and encoding ranks out of turn, even
// on a single-CPU machine.
func forceWorkers(t *testing.T, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// TestReduceStreamToWriterParity pins the tentpole guarantee end to end:
// the pipelined reduce-to-writer bytes are identical to encoding the
// batch Reduce result, for both container versions, and the returned
// stats match the batch reduction's counters.
func TestReduceStreamToWriterParity(t *testing.T) {
	forceWorkers(t, 4)
	rng := rand.New(rand.NewSource(99))
	tr := buildMultiRankTrace("pipelined", 16, 15, rng)
	for _, name := range []string{"avgWave", "iter_avg", "euclidean"} {
		p1, _ := DefaultMethod(name)
		batch, err := Reduce(tr, p1)
		if err != nil {
			t.Fatalf("%s: Reduce: %v", name, err)
		}
		for _, version := range []int{1, 2} {
			var want bytes.Buffer
			if err := EncodeReduced(&want, batch, version); err != nil {
				t.Fatalf("%s v%d: batch encode: %v", name, version, err)
			}
			p2, _ := DefaultMethod(name)
			var got bytes.Buffer
			stats, err := ReduceStreamToWriterOpts(decoderOf(t, tr), p2, &got, version, StreamOptions{})
			if err != nil {
				t.Fatalf("%s v%d: ReduceStreamToWriterOpts: %v", name, version, err)
			}
			if !bytes.Equal(want.Bytes(), got.Bytes()) {
				t.Errorf("%s v%d: pipelined container differs from batch (%d vs %d bytes)",
					name, version, got.Len(), want.Len())
			}
			if stats.BytesWritten != int64(got.Len()) {
				t.Errorf("%s v%d: BytesWritten = %d, wrote %d", name, version, stats.BytesWritten, got.Len())
			}
			if stats.Ranks != len(batch.Ranks) ||
				stats.TotalSegments != batch.TotalSegments ||
				stats.Matches != batch.Matches ||
				stats.PossibleMatches != batch.PossibleMatches ||
				stats.StoredSegments != batch.StoredSegments() {
				t.Errorf("%s v%d: stats %+v disagree with batch counters (%d ranks, %d/%d/%d, %d stored)",
					name, version, stats, len(batch.Ranks),
					batch.TotalSegments, batch.Matches, batch.PossibleMatches, batch.StoredSegments())
			}
			if stats.DegreeOfMatching() != batch.DegreeOfMatching() {
				t.Errorf("%s v%d: DegreeOfMatching %v != batch %v",
					name, version, stats.DegreeOfMatching(), batch.DegreeOfMatching())
			}
			if stats.Name != tr.Name || stats.Method != name {
				t.Errorf("%s v%d: stats identity = %q/%q", name, version, stats.Name, stats.Method)
			}
		}
	}
}

// TestReduceStreamToWriterEmpty: a trace of no ranks must still produce
// a valid empty container, byte-identical to the batch path.
func TestReduceStreamToWriterEmpty(t *testing.T) {
	empty := &Reduced{Name: "empty", Method: "avgWave"}
	for _, version := range []int{1, 2} {
		var want bytes.Buffer
		if err := EncodeReduced(&want, empty, version); err != nil {
			t.Fatal(err)
		}
		p, _ := DefaultMethod("avgWave")
		var got bytes.Buffer
		stats, err := ReduceStreamToWriterOpts(decoderOf(t, trace.New("empty", 0)), p, &got, version, StreamOptions{})
		if err != nil {
			t.Fatalf("v%d: %v", version, err)
		}
		if !bytes.Equal(want.Bytes(), got.Bytes()) {
			t.Errorf("v%d: empty pipelined container differs from batch", version)
		}
		if stats.Ranks != 0 || stats.DegreeOfMatching() != 1 {
			t.Errorf("v%d: empty stats %+v", version, stats)
		}
	}
}

var errPipeInjected = errors.New("injected pipeline write failure")

// pipeFailWriter accepts limit bytes, then fails every Write.
type pipeFailWriter struct {
	limit int
	n     int
}

func (w *pipeFailWriter) Write(p []byte) (int, error) {
	if w.n+len(p) > w.limit {
		k := max(w.limit-w.n, 0)
		w.n += k
		return k, errPipeInjected
	}
	w.n += len(p)
	return len(p), nil
}

// pipeShortWriter accepts limit bytes, then accepts nothing without
// erroring; the buffered writer must turn that into io.ErrShortWrite.
type pipeShortWriter struct {
	limit int
	n     int
}

func (w *pipeShortWriter) Write(p []byte) (int, error) {
	k := min(len(p), max(w.limit-w.n, 0))
	w.n += k
	return k, nil
}

// pipelineTimeout runs fn with a watchdog so a wedged pipeline fails
// the test instead of hanging it.
func pipelineTimeout(t *testing.T, what string, fn func() error) error {
	t.Helper()
	ch := make(chan error, 1)
	go func() { ch <- fn() }()
	select {
	case err := <-ch:
		return err
	case <-time.After(30 * time.Second):
		t.Fatalf("%s blocked: reduce-to-writer pipeline wedged", what)
		return nil
	}
}

// waitPipelineGoroutines fails if goroutines leak past the pre-test
// level after the error paths.
func waitPipelineGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d goroutines before, %d after pipeline failure",
				before, runtime.NumGoroutine())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestReduceStreamToWriterFailingWriter sweeps an injected write
// failure across both container versions: every fault point must yield
// a clean latched error, promptly, with all workers stopped.
func TestReduceStreamToWriterFailingWriter(t *testing.T) {
	forceWorkers(t, 4)
	rng := rand.New(rand.NewSource(3))
	tr := buildMultiRankTrace("failing", 8, 10, rng)
	before := runtime.NumGoroutine()
	for _, version := range []int{1, 2} {
		p, _ := DefaultMethod("avgWave")
		var full bytes.Buffer
		if _, err := ReduceStreamToWriterOpts(decoderOf(t, tr), p, &full, version, StreamOptions{}); err != nil {
			t.Fatalf("v%d: clean run: %v", version, err)
		}
		size := full.Len()
		limits := []int{0, 1, 3, size / 3, size / 2, size - 1}
		for _, limit := range limits {
			label := fmt.Sprintf("v%d limit=%d", version, limit)
			p, _ := DefaultMethod("avgWave")
			err := pipelineTimeout(t, label, func() error {
				_, err := ReduceStreamToWriterOpts(decoderOf(t, tr), p, &pipeFailWriter{limit: limit}, version, StreamOptions{})
				return err
			})
			if !errors.Is(err, errPipeInjected) {
				t.Fatalf("%s: error = %v, want injected write failure", label, err)
			}
			label = fmt.Sprintf("v%d short=%d", version, limit)
			p, _ = DefaultMethod("avgWave")
			err = pipelineTimeout(t, label, func() error {
				_, err := ReduceStreamToWriterOpts(decoderOf(t, tr), p, &pipeShortWriter{limit: limit}, version, StreamOptions{})
				return err
			})
			if !errors.Is(err, io.ErrShortWrite) {
				t.Fatalf("%s: error = %v, want io.ErrShortWrite", label, err)
			}
		}
	}
	waitPipelineGoroutines(t, before)
}

// TestReduceStreamToWriterSourceError: decoder and reducer failures must
// propagate out of the pipeline without leaving a worker waiting on the
// engine's claim lock.
func TestReduceStreamToWriterSourceError(t *testing.T) {
	forceWorkers(t, 4)
	before := runtime.NumGoroutine()
	errSource := errors.New("injected source failure")
	t.Run("decode-error", func(t *testing.T) {
		rng := rand.New(rand.NewSource(5))
		tr := buildMultiRankTrace("src", 6, 8, rng)
		d := openDecoder(t, failingFrom(t, tr, 3, errSource), trace.DecoderOptions{})
		p, _ := DefaultMethod("avgWave")
		err := pipelineTimeout(t, "decode-error", func() error {
			_, err := ReduceStreamToWriterOpts(d, p, io.Discard, 2, StreamOptions{})
			return err
		})
		if !errors.Is(err, errSource) {
			t.Fatalf("error = %v, want injected source failure", err)
		}
	})
	t.Run("reduce-error", func(t *testing.T) {
		// An unclosed segment in a middle rank must fail the stream.
		tr := trace.New("bad", 3)
		for r := 0; r < 3; r++ {
			tr.Ranks[r].Events = []trace.Event{
				{Name: "main.1", Kind: trace.KindMarkBegin, Peer: trace.NoPeer, Root: trace.NoPeer},
				{Name: "w", Kind: trace.KindCompute, Exit: 5, Peer: trace.NoPeer, Root: trace.NoPeer},
				{Name: "main.1", Kind: trace.KindMarkEnd, Enter: 6, Exit: 6, Peer: trace.NoPeer, Root: trace.NoPeer},
			}
		}
		tr.Ranks[1].Events = tr.Ranks[1].Events[:1] // unclosed segment
		err := pipelineTimeout(t, "reduce-error", func() error {
			_, err := ReduceStreamToWriterOpts(decoderOf(t, tr), NewIterAvg(), io.Discard, 1, StreamOptions{})
			return err
		})
		if err == nil {
			t.Fatal("pipeline accepted an unclosed segment")
		}
	})
	waitPipelineGoroutines(t, before)
}

// TestReduceStreamToWriterBadVersion: unknown container versions are
// rejected before any work happens.
func TestReduceStreamToWriterBadVersion(t *testing.T) {
	p, _ := DefaultMethod("avgWave")
	for _, v := range []int{0, 3, -1} {
		if _, err := ReduceStreamToWriterOpts(decoderOf(t, trace.New("x", 0)), p, io.Discard, v, StreamOptions{}); err == nil {
			t.Errorf("version %d accepted", v)
		}
	}
}
