package tracered_test

import (
	"bytes"
	"io"
	"runtime"
	"testing"
	"time"

	"repro/tracered"
)

// TestFailedStreamReductionClosesDecoder: a streaming reduction that
// fails stops pulling ranks from its decoder, so it must close the
// decoder itself. Otherwise a random-access v2 decoder's block workers
// stay parked on the in-flight window, holding the ranks they decoded
// ahead, for as long as the process lives.
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
	paths := map[string]func(d *tracered.TraceDecoder) error{
		"ReduceStream": func(d *tracered.TraceDecoder) error {
			_, err := tracered.ReduceStream(d, m)
			return err
		},
		"ReduceStreamToWriterOpts": func(d *tracered.TraceDecoder) error {
			_, err := tracered.ReduceStreamToWriterOpts(d, m, io.Discard, tracered.FormatV2, opts)
			return err
		},
	}
	for name, reduce := range paths {
		before := runtime.NumGoroutine()
		for i := 0; i < 10; i++ {
			d, err := tracered.NewTraceDecoderWith(bytes.NewReader(file.Bytes()), tracered.DecoderOptions{Workers: 4})
			if err != nil {
				t.Fatal(err)
			}
			if err := reduce(d); err == nil {
				t.Fatalf("%s: reduction with an unclosed segment succeeded", name)
			}
		}
		deadline := time.Now().Add(10 * time.Second)
		for runtime.NumGoroutine() > before {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d goroutines before 10 failed reductions, %d after",
					name, before, runtime.NumGoroutine())
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}
