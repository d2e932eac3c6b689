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
// decoder, whichever container version it reads, so a later NextRank
// fails instead of reading on, and leaves no goroutine behind.
func TestFailedStreamReductionClosesDecoder(t *testing.T) {
	full, err := tracered.GenerateWorkload("late_sender")
	if err != nil {
		t.Fatal(err)
	}
	// Dropping rank 0's closing marker leaves its last segment open.
	events := full.Ranks[0].Events
	full.Ranks[0].Events = events[:len(events)-1]
	m, err := tracered.DefaultMethod("avgWave")
	if err != nil {
		t.Fatal(err)
	}
	opts := tracered.StreamOptions{Workers: 4}
	for _, in := range []tracered.Format{tracered.FormatV1, tracered.FormatV2} {
		var file bytes.Buffer
		if err := tracered.WriteTraceFormat(&file, full, in); err != nil {
			t.Fatal(err)
		}
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
					t.Fatalf("%v input, %v output: failing reduction succeeded", in, f)
				}
				if _, err := d.NextRank(); err == nil {
					t.Fatalf("%v input, %v output: the decoder reads on after the failed reduction", in, f)
				}
			}
			deadline := time.Now().Add(10 * time.Second)
			for runtime.NumGoroutine() > before {
				if time.Now().After(deadline) {
					t.Fatalf("%v input, %v output: %d goroutines before 10 failed reductions, %d after",
						in, f, before, runtime.NumGoroutine())
				}
				time.Sleep(5 * time.Millisecond)
			}
		}
	}
}
