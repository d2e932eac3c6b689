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

// TestPipelineParkedRanksStop fails and cancels a run while ranks are
// parked. Rank 3's read blocks until ranks 4..7 have been reduced and
// parked behind it, with ranks 0..2 registered and encoded; then rank 3
// fails, or the run is cancelled and rank 3 arrives afterwards. The run
// must return the failure or ctx.Err(), drop the parked ranks, hand back
// every chunk it encoded, and leave no goroutine behind.
func TestPipelineParkedRanksStop(t *testing.T) {
	forceWorkers(t, 4)
	tr := buildMultiRankTrace("parked", 8, 20, rand.New(rand.NewSource(31)))
	errRank := errors.New("injected rank 3 failure")
	for _, mode := range []string{"failure", "cancel"} {
		t.Run(mode, func(t *testing.T) {
			before := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			s := &encodeSink{version: 2, nt: trace.NewNameTable()}
			// ready reports ranks 0..2 registered and ranks 4..7 parked.
			ready := func() bool {
				s.mu.Lock()
				defer s.mu.Unlock()
				if s.next != 3 || len(s.slots) != len(tr.Ranks) {
					return false
				}
				for i := 4; i < len(s.slots); i++ {
					if !s.slots[i].parked {
						return false
					}
				}
				return true
			}
			release := make(chan struct{})
			src := rankSource{n: len(tr.Ranks), at: func(i int) (*trace.RankTrace, error) {
				if i == 3 {
					<-release
					if mode == "failure" {
						return nil, errRank
					}
				}
				return &tr.Ranks[i], nil
			}}
			p, _ := DefaultMethod("avgWave")
			done := make(chan error, 1)
			go func() { done <- reduceRanks(tr.Name, p, src, StreamOptions{Workers: 4, Ctx: ctx}, s) }()
			deadline := time.Now().Add(10 * time.Second)
			for !ready() {
				if time.Now().After(deadline) {
					t.Fatal("ranks 0..2 never registered, or ranks 4..7 never parked behind rank 3")
				}
				time.Sleep(time.Millisecond)
			}
			if mode == "cancel" {
				// The engine learns of the cancellation on its own
				// goroutine; let rank 3 arrive only once it has.
				cancel()
				for {
					s.mu.Lock()
					aborted := s.aborted
					s.mu.Unlock()
					if aborted {
						break
					}
					time.Sleep(time.Millisecond)
				}
			}
			close(release)
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
			if s.next != 3 {
				t.Errorf("%d ranks registered, want ranks 0..2", s.next)
			}
			for i := range s.slots {
				if sl := &s.slots[i]; (sl.chunk != nil) != (i < 3) {
					t.Errorf("rank %d: chunk %v, want chunks for exactly ranks 0..2", i, sl.chunk != nil)
				}
			}
			s.release()
			for i := range s.slots {
				if sl := &s.slots[i]; sl.chunk != nil || sl.parked || sl.rr.Stored != nil {
					t.Errorf("rank %d still holds its chunk or reduction after release", i)
				}
			}
			waitPipelineGoroutines(t, before)
		})
	}
}
