package tracered_test

import (
	"bytes"
	"io"
	"runtime"
	"testing"
	"time"

	"repro/tracered"
)

// TestFailedStreamReductionClosesDecoder: a pipelined reduction that
// fails, before reading any rank or after reading some, closes its
// decoder, so a later NextRank fails instead of reading on, and leaves
// no goroutine behind.
func TestFailedStreamReductionClosesDecoder(t *testing.T) {
	full, err := tracered.GenerateWorkload("late_sender")
	if err != nil {
		t.Fatal(err)
	}
	// Dropping rank 0's closing marker leaves its last segment open.
	events := full.Ranks[0].Events
	full.Ranks[0].Events = events[:len(events)-1]
	var file bytes.Buffer
	if err := tracered.WriteTraceFormat(&file, full, tracered.FormatV2); err != nil {
		t.Fatal(err)
	}
	m, err := tracered.DefaultMethod("avgWave")
	if err != nil {
		t.Fatal(err)
	}
	opts := tracered.StreamOptions{Workers: 4}
	// An unknown format fails before any rank is read, an unclosed
	// segment after some are.
	for _, f := range []tracered.Format{tracered.FormatV2, 3} {
		before := runtime.NumGoroutine()
		for i := 0; i < 10; i++ {
			d, err := tracered.NewTraceDecoderWith(bytes.NewReader(file.Bytes()), tracered.DecoderOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := tracered.ReduceStreamToWriterOpts(d, m, io.Discard, f, opts); err == nil {
				t.Fatalf("%v: failing reduction succeeded", f)
			}
			if _, err := d.NextRank(); err == nil {
				t.Fatalf("%v: the decoder reads on after the failed reduction", f)
			}
		}
		deadline := time.Now().Add(10 * time.Second)
		for runtime.NumGoroutine() > before {
			if time.Now().After(deadline) {
				t.Fatalf("%v: %d goroutines before 10 failed reductions, %d after",
					f, before, runtime.NumGoroutine())
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}
