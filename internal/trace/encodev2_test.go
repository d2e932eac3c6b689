package trace

import (
	"bytes"
	"errors"
	"io"
	"runtime"
	"testing"
	"time"
)

// encodeStressTrace is big enough that the writer's buffer flushes
// many times mid-encode, so injected write failures surface at different
// stages (header, blocks, footer) depending on the fault point.
func encodeStressTrace() *Trace {
	tr := New("encode_stress", 64)
	for i := range tr.Ranks {
		base := Time(100 * (i + 1))
		for j := 0; j < 30; j++ {
			at := base + Time(j*17)
			tr.Ranks[i].Events = append(tr.Ranks[i].Events,
				Event{Name: "work", Kind: KindCompute, Enter: at, Exit: at + 9, Peer: NoPeer, Root: NoPeer},
				Event{Name: "MPI_Send", Kind: KindSend, Enter: at + 10, Exit: at + 12, Peer: int32(j), Tag: 7, Bytes: int64(j) << 20, Root: NoPeer},
			)
		}
	}
	return tr
}

// waitNoEncodeGoroutines fails if, after a grace period, the goroutine
// count stays above the pre-test level — the leak check of the
// fault-injection tests.
func waitNoEncodeGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d goroutines before, %d after encode failure",
				before, runtime.NumGoroutine())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

var errInjectedWrite = errors.New("injected write failure")

// failAfterWriter accepts limit bytes, then fails every Write.
type failAfterWriter struct {
	limit int
	n     int
}

func (w *failAfterWriter) Write(p []byte) (int, error) {
	if w.n+len(p) > w.limit {
		k := max(w.limit-w.n, 0)
		w.n += k
		return k, errInjectedWrite
	}
	w.n += len(p)
	return len(p), nil
}

// shortWriter accepts limit bytes, then silently accepts nothing —
// bufio must convert the short count into io.ErrShortWrite.
type shortWriter struct {
	limit int
	n     int
}

func (w *shortWriter) Write(p []byte) (int, error) {
	k := min(len(p), max(w.limit-w.n, 0))
	w.n += k
	return k, nil
}

// containerEncoders are the two trace encoders, which write through the
// same latched container writer.
var containerEncoders = []struct {
	name   string
	encode func(io.Writer, *Trace) error
}{{"TRC1", Encode}, {"TRC2", EncodeV2}}

// TestEncodeV2FailingWriter sweeps an injected write failure across the
// whole container, in both versions: at every fault point the encode
// must return the injected error and leave no goroutine behind.
func TestEncodeV2FailingWriter(t *testing.T) {
	tr := encodeStressTrace()
	for _, enc := range containerEncoders {
		var full bytes.Buffer
		if err := enc.encode(&full, tr); err != nil {
			t.Fatal(err)
		}
		size := full.Len()
		before := runtime.NumGoroutine()
		limits := []int{0, 1, 3}
		for l := 5; l < size; l += 997 {
			limits = append(limits, l)
		}
		limits = append(limits, size-1)
		for _, limit := range limits {
			if err := enc.encode(&failAfterWriter{limit: limit}, tr); !errors.Is(err, errInjectedWrite) {
				t.Fatalf("%s limit=%d: encode error = %v, want injected write failure", enc.name, limit, err)
			}
		}
		waitNoEncodeGoroutines(t, before)
	}
}

// TestEncodeV2ShortWriter: a destination that under-reports writes
// without erroring must still fail the encode (io.ErrShortWrite), in
// both versions, not silently truncate the container.
func TestEncodeV2ShortWriter(t *testing.T) {
	tr := encodeStressTrace()
	for _, enc := range containerEncoders {
		var full bytes.Buffer
		if err := enc.encode(&full, tr); err != nil {
			t.Fatal(err)
		}
		size := full.Len()
		before := runtime.NumGoroutine()
		for _, limit := range []int{0, 100, size / 2, size - 1} {
			if err := enc.encode(&shortWriter{limit: limit}, tr); !errors.Is(err, io.ErrShortWrite) {
				t.Fatalf("%s short limit=%d: encode error = %v, want io.ErrShortWrite", enc.name, limit, err)
			}
		}
		waitNoEncodeGoroutines(t, before)
	}
}

// TestBlockWriterErrorLatch pins the error discipline: after the first
// failure every subsequent Write, writeBlock, finish and flush must
// surface the same error rather than a nil or a different one.
func TestBlockWriterErrorLatch(t *testing.T) {
	bw := newBlockWriter(&failAfterWriter{limit: 0})
	// The bufio layer absorbs small writes; force the failure through.
	big := make([]byte, 1<<16)
	if _, err := bw.Write(big); !errors.Is(err, errInjectedWrite) {
		t.Fatalf("first Write error = %v, want injected", err)
	}
	if _, err := bw.Write([]byte("x")); !errors.Is(err, errInjectedWrite) {
		t.Errorf("Write after failure = %v, want latched injected error", err)
	}
	if err := bw.writeBlock(0, 0, nil); !errors.Is(err, errInjectedWrite) {
		t.Errorf("writeBlock after failure = %v, want latched injected error", err)
	}
	if err := bw.finish(traceMagicV2); !errors.Is(err, errInjectedWrite) {
		t.Errorf("finish after failure = %v, want latched injected error", err)
	}
	if err := bw.flush(); !errors.Is(err, errInjectedWrite) {
		t.Errorf("flush after failure = %v, want latched injected error", err)
	}
}
