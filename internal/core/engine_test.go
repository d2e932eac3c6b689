package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

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
// engine: Reduce over tr, with GOMAXPROCS workers, and the pipeline with
// the given worker count over each decoder srcs returns, keyed by the
// source's name: a plain stream is read in order, a random-access TRC2
// container by index on the pipeline's workers.
func engineEntryPoints(t *testing.T, tr *trace.Trace, srcs map[string]func() *trace.Decoder, workers int) map[string]func() error {
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
	for srcName, src := range srcs {
		for _, version := range []int{1, 2} {
			paths[fmt.Sprintf("ReduceStreamToWriterOpts/%s/v%d", srcName, version)] = func() error {
				_, err := ReduceStreamToWriterOpts(src(), p, io.Discard, version, StreamOptions{Workers: workers})
				return err
			}
		}
	}
	return paths
}

// encodeTraceV2 returns tr's TRC2 container.
func encodeTraceV2(t testing.TB, tr *trace.Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.EncodeV2(&buf, tr); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// randomAccessOf returns a decoder over tr's TRC2 container on a
// random-access reader, which the pipeline reads by index.
func randomAccessOf(t testing.TB, tr *trace.Trace) *trace.Decoder {
	t.Helper()
	d := openDecoder(t, bytes.NewReader(encodeTraceV2(t, tr)), trace.DecoderOptions{})
	if trace.RankAt(d) == nil {
		t.Fatal("a TRC2 container on a bytes.Reader is not read by index")
	}
	return d
}

// TestReduceErrorNamesLowestRank pins the engine's error rule: when
// several ranks fail, every entry point reports the lowest-numbered
// failing rank, whatever the worker count, the scheduling, and whether
// the ranks are read in order or decoded by index on the workers.
func TestReduceErrorNamesLowestRank(t *testing.T) {
	tr := unclosedTrace(16, 40, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15)
	srcs := map[string]func() *trace.Decoder{
		"stream":        func() *trace.Decoder { return decoderOf(t, tr) },
		"random-access": func() *trace.Decoder { return randomAccessOf(t, tr) },
	}
	for _, workers := range []int{1, 2, 4, 8} {
		forceWorkers(t, workers)
		for name, run := range engineEntryPoints(t, tr, srcs, workers) {
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

// failingBlockAt is a random-access reader over a v2 container whose
// ReadAt fails with err when it reads the block at offset at; reads of
// the header, which may run past it, succeed.
type failingBlockAt struct {
	*bytes.Reader
	at  int64
	err error
}

func (f failingBlockAt) ReadAt(p []byte, off int64) (int, error) {
	if off == f.at {
		return 0, f.err
	}
	return f.Reader.ReadAt(p, off)
}

// blockOffset returns the offset of block k of a v2 container, read from
// its footer index: the u64 index offset before the trailing magic, then
// a u32 block count and 24-byte entries that start with the block's u64
// offset.
func blockOffset(t testing.TB, data []byte, k int) int64 {
	t.Helper()
	le := binary.LittleEndian
	index := le.Uint64(data[len(data)-12:])
	if n := le.Uint32(data[index:]); int(n) <= k {
		t.Fatalf("container has %d blocks, want more than %d", n, k)
	}
	return int64(le.Uint64(data[index+4+uint64(24*k):]))
}

// TestReduceErrorSourceBehindFailedRank: a source that fails at rank 5
// behind a malformed rank 2 must report rank 2, the earlier failure,
// even when a worker reaches the source error first: a stream cut where
// rank 5 starts, and a random-access container whose block 5 cannot be
// read, which a worker meets while rank 2 is still being reduced.
func TestReduceErrorSourceBehindFailedRank(t *testing.T) {
	// Rank 2 carries many segments, so it fails well after the cheap
	// ranks around it have been reduced and the source has been asked
	// for rank 5.
	tr := unclosedTrace(8, 4, 2)
	heavy := unclosedTrace(1, 4000, 0)
	tr.Ranks[2].Events = heavy.Ranks[0].Events
	errSource := errors.New("injected source failure")
	v2 := encodeTraceV2(t, tr)
	at := blockOffset(t, v2, 5)
	srcs := map[string]func() *trace.Decoder{
		"stream": func() *trace.Decoder {
			return openDecoder(t, failingFrom(t, tr, 5, errSource), trace.DecoderOptions{})
		},
		"random-access": func() *trace.Decoder {
			return openDecoder(t, failingBlockAt{bytes.NewReader(v2), at, errSource}, trace.DecoderOptions{})
		},
	}
	for _, workers := range []int{1, 2, 4, 8} {
		forceWorkers(t, workers)
		for name, run := range engineEntryPoints(t, tr, srcs, workers) {
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
	// With no rank failing before it, the unreadable block is the error.
	clean := encodeTraceV2(t, unclosedTrace(8, 4))
	at = blockOffset(t, clean, 5)
	for _, workers := range []int{1, 4} {
		d := openDecoder(t, failingBlockAt{bytes.NewReader(clean), at, errSource}, trace.DecoderOptions{})
		p, _ := DefaultMethod("avgWave")
		if _, err := ReduceStreamToWriterOpts(d, p, io.Discard, 2, StreamOptions{Workers: workers}); !errors.Is(err, errSource) {
			t.Fatalf("workers=%d: unreadable block 5 of a clean trace: error = %v, want the injected failure", workers, err)
		}
	}
}

// imbalancedTrace returns a trace whose rank 0 holds most segments, so
// the other ranks finish, and wait to register their names, long before
// it. Each rank also uses names of its own, so the name table, and with
// it every chunk's bytes, depends on the ranks registering in order.
func imbalancedTrace(nRanks int) *trace.Trace {
	rng := rand.New(rand.NewSource(23))
	tr := trace.New("imbalanced", nRanks)
	for r := range tr.Ranks {
		iters := 6
		if r == 0 {
			iters = 3000
		}
		now := trace.Time(0)
		add := func(name string, kind trace.EventKind, d trace.Time) {
			tr.Ranks[r].Events = append(tr.Ranks[r].Events, trace.Event{
				Name: name, Kind: kind, Enter: now, Exit: now + d, Peer: trace.NoPeer, Root: trace.NoPeer})
			now += d
		}
		for i := 0; i < iters; i++ {
			ctx := fmt.Sprintf("loop.%d", i%3)
			add(ctx, trace.KindMarkBegin, 0)
			add("do_work", trace.KindCompute, trace.Time(10+rng.Intn(40)))
			add(fmt.Sprintf("rank%d_step%d", r, i%2), trace.KindCompute, trace.Time(5+rng.Intn(5)))
			add(ctx, trace.KindMarkEnd, 0)
		}
	}
	return tr
}

// TestPipelineImbalancedParity: with rank 0 holding most of the work,
// the other ranks park behind it, and the worker that registers rank 0
// registers and encodes them; the bytes must still equal the batch
// encoder's, from a stream and by index, at every worker count.
func TestPipelineImbalancedParity(t *testing.T) {
	tr := imbalancedTrace(24)
	p, err := DefaultMethod("euclidean")
	if err != nil {
		t.Fatal(err)
	}
	batch, err := Reduce(tr, p)
	if err != nil {
		t.Fatal(err)
	}
	srcs := map[string]func() *trace.Decoder{
		"stream":        func() *trace.Decoder { return decoderOf(t, tr) },
		"random-access": func() *trace.Decoder { return randomAccessOf(t, tr) },
	}
	for _, version := range []int{1, 2} {
		var want bytes.Buffer
		if err := EncodeReduced(&want, batch, version); err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 4, 8} {
			forceWorkers(t, workers)
			for name, src := range srcs {
				var got bytes.Buffer
				st, err := ReduceStreamToWriterOpts(src(), p, &got, version, StreamOptions{Workers: workers})
				if err != nil {
					t.Fatalf("%s v%d workers=%d: %v", name, version, workers, err)
				}
				if !bytes.Equal(got.Bytes(), want.Bytes()) {
					t.Errorf("%s v%d workers=%d: pipelined bytes differ from the batch encoder's", name, version, workers)
				}
				if st.Ranks != len(tr.Ranks) || st.TotalSegments != batch.TotalSegments || st.Matches != batch.Matches ||
					st.StoredSegments != batch.StoredSegments() {
					t.Errorf("%s v%d workers=%d: stats %+v disagree with the batch reduction", name, version, workers, st)
				}
			}
		}
	}
}

// gatedBlockAt is a random-access reader over a v2 container that
// counts its ReadAt calls, and whose ReadAt of the block at offset at
// waits for release, then fails with err when it is set.
type gatedBlockAt struct {
	*bytes.Reader
	at      int64
	release chan struct{}
	err     error
	reads   *atomic.Int32
}

func (g gatedBlockAt) ReadAt(p []byte, off int64) (int, error) {
	g.reads.Add(1)
	if off == g.at {
		<-g.release
		if g.err != nil {
			return 0, g.err
		}
	}
	return g.Reader.ReadAt(p, off)
}

// TestPipelineStopsAfterReducedRanks fails and cancels a pipelined run
// once every rank but one is reduced. Rank 3's block read, on one of the
// four workers, blocks until the other three workers have reduced ranks
// 0..2 and 4..7 and returned; then rank 3 fails, or the context is
// cancelled and rank 3 arrives afterwards. The run must return the
// failure or context.Canceled, write nothing, and leave no goroutine
// behind.
func TestPipelineStopsAfterReducedRanks(t *testing.T) {
	forceWorkers(t, 4)
	tr := buildMultiRankTrace("stops", 8, 20, rand.New(rand.NewSource(31)))
	data := encodeTraceV2(t, tr)
	at := blockOffset(t, data, 3)
	errRank := errors.New("injected rank 3 failure")
	for _, mode := range []string{"failure", "cancel"} {
		t.Run(mode, func(t *testing.T) {
			before := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			r := gatedBlockAt{Reader: bytes.NewReader(data), at: at, release: make(chan struct{}), reads: new(atomic.Int32)}
			if mode == "failure" {
				r.err = errRank
			}
			d := openDecoder(t, r, trace.DecoderOptions{})
			opened := r.reads.Load()
			p, _ := DefaultMethod("avgWave")
			var out bytes.Buffer
			done := make(chan error, 1)
			go func() {
				_, err := ReduceStreamToWriterOpts(d, p, &out, 2, StreamOptions{Workers: 4, Ctx: ctx})
				done <- err
			}()
			// Once all eight blocks have been read, a worker other than
			// rank 3's returns only after reducing what it claimed and
			// finding no rank left to claim. So with just the run's
			// goroutine and rank 3's worker left, ranks 0..2 and 4..7 are
			// reduced.
			deadline := time.Now().Add(10 * time.Second)
			for r.reads.Load() < opened+8 || runtime.NumGoroutine() > before+2 {
				if time.Now().After(deadline) {
					t.Fatal("ranks 0..2 and 4..7 were never reduced while rank 3's read blocked")
				}
				time.Sleep(time.Millisecond)
			}
			if mode == "cancel" {
				cancel()
			}
			close(r.release)
			var err error
			select {
			case err = <-done:
			case <-time.After(30 * time.Second):
				t.Fatal("the run did not return")
			}
			want := errRank
			if mode == "cancel" {
				want = context.Canceled
			}
			if !errors.Is(err, want) {
				t.Fatalf("error = %v, want %v", err, want)
			}
			if out.Len() != 0 {
				t.Errorf("the failed run wrote %d bytes", out.Len())
			}
			waitPipelineGoroutines(t, before)
		})
	}
}
