package core

import (
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"

	"repro/internal/trace"
)

// unclosedTrace returns an nRanks-rank trace whose ranks each hold
// iters closed segments; the ranks listed in bad then open one more
// segment that never closes, so reducing them fails.
func unclosedTrace(nRanks, iters int, bad ...int) *trace.Trace {
	tr := trace.New("unclosed", nRanks)
	for r := range tr.Ranks {
		now := trace.Time(0)
		add := func(name string, kind trace.EventKind, d trace.Time) {
			tr.Ranks[r].Events = append(tr.Ranks[r].Events, trace.Event{
				Name: name, Kind: kind, Enter: now, Exit: now + d, Peer: trace.NoPeer, Root: trace.NoPeer})
			now += d
		}
		for i := 0; i < iters; i++ {
			add("main.1", trace.KindMarkBegin, 0)
			add("do_work", trace.KindCompute, trace.Time(10+(r+i)%7))
			add("main.1", trace.KindMarkEnd, 0)
		}
	}
	for _, r := range bad {
		tr.Ranks[r].Events = append(tr.Ranks[r].Events, trace.Event{
			Name: "main.1", Kind: trace.KindMarkBegin, Peer: trace.NoPeer, Root: trace.NoPeer})
	}
	return tr
}

// engineEntryPoints runs every public entry point of the rank-parallel
// engine: Reduce over tr, with GOMAXPROCS workers, and the pipeline over
// the decoder src returns, with the given worker count.
func engineEntryPoints(t *testing.T, tr *trace.Trace, src func() *trace.Decoder, workers int) map[string]func() error {
	t.Helper()
	p, err := DefaultMethod("avgWave")
	if err != nil {
		t.Fatal(err)
	}
	paths := map[string]func() error{
		"Reduce": func() error {
			_, err := Reduce(tr, p)
			return err
		},
	}
	for _, version := range []int{1, 2} {
		paths[fmt.Sprintf("ReduceStreamToWriterOpts/v%d", version)] = func() error {
			_, err := ReduceStreamToWriterOpts(src(), p, io.Discard, version, StreamOptions{Workers: workers})
			return err
		}
	}
	return paths
}

// TestReduceErrorNamesLowestRank pins the engine's error rule: when
// several ranks fail, every entry point reports the lowest-numbered
// failing rank, whatever the worker count and the scheduling.
func TestReduceErrorNamesLowestRank(t *testing.T) {
	tr := unclosedTrace(16, 40, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15)
	src := func() *trace.Decoder { return decoderOf(t, tr) }
	for _, workers := range []int{1, 2, 4, 8} {
		forceWorkers(t, workers)
		for name, run := range engineEntryPoints(t, tr, src, workers) {
			texts := map[string]int{}
			for rep := 0; rep < 50; rep++ {
				err := run()
				if err == nil {
					t.Fatalf("%s workers=%d: reduction of unclosed segments succeeded", name, workers)
				}
				texts[err.Error()]++
			}
			if len(texts) != 1 {
				t.Errorf("%s workers=%d: %d distinct error texts over 50 runs: %v", name, workers, len(texts), texts)
				continue
			}
			for text := range texts {
				if !strings.Contains(text, "rank 0:") {
					t.Errorf("%s workers=%d: error %q does not name rank 0", name, workers, text)
				}
			}
		}
	}
}

// TestReduceErrorSourceBehindFailedRank: a source that fails at rank 5
// behind a malformed rank 2 must report rank 2, the earlier failure,
// even when a worker reaches the source error first.
func TestReduceErrorSourceBehindFailedRank(t *testing.T) {
	// Rank 2 carries many segments, so it fails well after the cheap
	// ranks around it have been reduced and the source has been asked
	// for rank 5.
	tr := unclosedTrace(8, 4, 2)
	heavy := unclosedTrace(1, 4000, 0)
	tr.Ranks[2].Events = heavy.Ranks[0].Events
	errSource := errors.New("injected source failure")
	src := func() *trace.Decoder {
		return openDecoder(t, failingFrom(t, tr, 5, errSource), trace.DecoderOptions{})
	}
	for _, workers := range []int{1, 2, 4, 8} {
		forceWorkers(t, workers)
		for name, run := range engineEntryPoints(t, tr, src, workers) {
			if name == "Reduce" {
				continue // batch Reduce reads no source
			}
			for rep := 0; rep < 50; rep++ {
				err := run()
				if err == nil || errors.Is(err, errSource) || !strings.Contains(err.Error(), "rank 2:") {
					t.Fatalf("%s workers=%d run %d: error = %v, want rank 2's failure", name, workers, rep, err)
				}
			}
		}
	}
}
