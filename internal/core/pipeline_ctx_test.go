package core

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math/rand"
	"testing"
	"time"

	"repro/internal/trace"
)

// cancelAfter cancels a context once n bytes have been read through it.
type cancelAfter struct {
	r      io.Reader
	n      int
	cancel context.CancelFunc
}

func (c *cancelAfter) Read(p []byte) (int, error) {
	k, err := c.r.Read(p)
	if c.n -= k; c.n <= 0 {
		c.cancel()
	}
	return k, err
}

// TestReduceStreamToWriterOptsCancel cancels the pipeline mid-stream:
// the decoder runs under the same context, so it stops yielding ranks,
// and the run must return the cancellation error instead of wedging in
// the registration turnstile.
func TestReduceStreamToWriterOptsCancel(t *testing.T) {
	forceWorkers(t, 4)
	rng := rand.New(rand.NewSource(7))
	tr := buildMultiRankTrace("cancelled", 32, 10, rng)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Cancel a quarter of the way into the container.
	enc := encodeTrace(t, tr)
	d := openDecoder(t, &cancelAfter{r: bytes.NewReader(enc), n: len(enc) / 4, cancel: cancel},
		trace.DecoderOptions{Ctx: ctx})
	p, _ := DefaultMethod("avgWave")
	done := make(chan struct{})
	var runErr error
	go func() {
		defer close(done)
		var buf bytes.Buffer
		_, runErr = ReduceStreamToWriterOpts(d, p, &buf, 2, StreamOptions{Workers: 4, Ctx: ctx})
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled pipeline did not return")
	}
	if !errors.Is(runErr, context.Canceled) {
		t.Fatalf("ReduceStreamToWriterOpts = %v, want context.Canceled", runErr)
	}
}

// TestReduceStreamToWriterOptsPreCancelled pins the upfront context
// check: a context dead before the call must fail deterministically —
// the async AfterFunc hook alone can lose the race against a small
// stream finishing first.
func TestReduceStreamToWriterOptsPreCancelled(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tr := buildMultiRankTrace("precancelled", 2, 4, rng)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p, _ := DefaultMethod("avgWave")
	var buf bytes.Buffer
	if _, err := ReduceStreamToWriterOpts(decoderOf(t, tr), p, &buf, 1,
		StreamOptions{Ctx: ctx}); !errors.Is(err, context.Canceled) {
		t.Fatalf("ReduceStreamToWriterOpts(pre-cancelled) = %v, want context.Canceled", err)
	}
}

// TestReduceStreamToWriterOptsWorkers pins that an explicit worker
// bound still produces the batch-identical bytes.
func TestReduceStreamToWriterOptsWorkers(t *testing.T) {
	forceWorkers(t, 4)
	rng := rand.New(rand.NewSource(8))
	tr := buildMultiRankTrace("bounded", 12, 8, rng)
	p1, _ := DefaultMethod("euclidean")
	batch, err := Reduce(tr, p1)
	if err != nil {
		t.Fatalf("Reduce: %v", err)
	}
	var want bytes.Buffer
	if err := EncodeReduced(&want, batch, 2); err != nil {
		t.Fatalf("EncodeReduced: %v", err)
	}
	for _, workers := range []int{1, 2, 3} {
		p2, _ := DefaultMethod("euclidean")
		var got bytes.Buffer
		if _, err := ReduceStreamToWriterOpts(decoderOf(t, tr), p2, &got, 2,
			StreamOptions{Workers: workers}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !bytes.Equal(want.Bytes(), got.Bytes()) {
			t.Errorf("workers=%d: bytes differ from batch encode", workers)
		}
	}
}

// TestDecodeReducedWithCancelled pins that the reduced-container
// decoders respect the context too.
func TestDecodeReducedWithCancelled(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	tr := buildMultiRankTrace("reduced_cancel", 8, 8, rng)
	p, _ := DefaultMethod("avgWave")
	red, err := Reduce(tr, p)
	if err != nil {
		t.Fatalf("Reduce: %v", err)
	}
	var buf bytes.Buffer
	if err := EncodeReduced(&buf, red, 2); err != nil {
		t.Fatalf("EncodeReduced: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := DecodeReducedWith(bytes.NewReader(buf.Bytes()),
		trace.DecoderOptions{Ctx: ctx}); !errors.Is(err, context.Canceled) {
		t.Fatalf("DecodeReducedWith(cancelled) = %v, want context.Canceled", err)
	}
}
