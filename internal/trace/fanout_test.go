package trace

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"testing"
	"time"
)

// fanOutTrace returns an n-rank trace whose ranks differ in length and
// share some names, so its TRC2 container has n blocks of varied sizes.
func fanOutTrace(n int) *Trace {
	t := New("fan_out", n)
	for r := range t.Ranks {
		now := Time(0)
		for i := 0; i < 20+7*r; i++ {
			t.Ranks[r].Events = append(t.Ranks[r].Events, Event{
				Name: fmt.Sprintf("f%d", (r+i)%5), Kind: KindCompute,
				Enter: now, Exit: now + Time(3+i%4), Peer: NoPeer, Root: NoPeer})
			now += Time(5 + i%3)
		}
	}
	return t
}

// waitGoroutines fails unless the goroutine count falls back to before.
func waitGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines left, %d before", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDecodeFanOutReportsLowestBlock corrupts the payloads of blocks 3
// and 7: the random-access Decode, which fans the blocks out over its
// workers, must report block 3 every time, whichever worker meets a bad
// block first, as the in-order stream decode does.
func TestDecodeFanOutReportsLowestBlock(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	data := encodeV2Bytes(t, fanOutTrace(12))
	l := layoutV2(t, data, traceMagicV2)
	for _, k := range []int{3, 7} {
		data[l.entries[k].Offset+blockHeaderSize] ^= 0xff
	}
	if _, err := Decode(streamOnly{bytes.NewReader(data)}); err == nil || !strings.Contains(err.Error(), "rank 3 block checksum") {
		t.Fatalf("stream decode error = %v, want rank 3's checksum", err)
	}
	_, first := Decode(bytes.NewReader(data))
	if first == nil || !strings.HasPrefix(first.Error(), "trace: rank 3 block checksum") {
		t.Fatalf("random-access decode error = %v, want rank 3's checksum", first)
	}
	for rep := 0; rep < 100; rep++ {
		if _, err := Decode(bytes.NewReader(data)); err == nil || err.Error() != first.Error() {
			t.Fatalf("run %d: random-access decode error = %v, want %q", rep, err, first)
		}
	}
}

// TestDecodeFanOutMatchesStream: the random-access fan-out and the
// stream decode build the same trace, at every worker count.
func TestDecodeFanOutMatchesStream(t *testing.T) {
	data := encodeV2Bytes(t, fanOutTrace(9))
	want, err := Decode(streamOnly{bytes.NewReader(data)})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 3, 16} {
		prev := runtime.GOMAXPROCS(workers)
		got, err := Decode(bytes.NewReader(data))
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !sameTrace(got, want) {
			t.Errorf("workers=%d: fanned-out decode differs from the stream decode", workers)
		}
	}
}

// sameTrace reports whether a and b hold the same name and ranks.
func sameTrace(a, b *Trace) bool {
	if a.Name != b.Name || len(a.Ranks) != len(b.Ranks) {
		return false
	}
	for r := range a.Ranks {
		if a.Ranks[r].Rank != b.Ranks[r].Rank || len(a.Ranks[r].Events) != len(b.Ranks[r].Events) {
			return false
		}
		for i := range a.Ranks[r].Events {
			if a.Ranks[r].Events[i] != b.Ranks[r].Events[i] {
				return false
			}
		}
	}
	return true
}

// cancelOnBlock is a random-access reader that cancels a context when
// the block at offset at is read.
type cancelOnBlock struct {
	*bytes.Reader
	at     int64
	cancel context.CancelFunc
}

func (c cancelOnBlock) ReadAt(p []byte, off int64) (int, error) {
	if off == c.at {
		c.cancel()
	}
	return c.Reader.ReadAt(p, off)
}

// TestReadAllCancel cancels a fan-out while block 4 is being read, and
// before it starts: ReadAll must return context.Canceled, and no worker
// may outlive the call.
func TestReadAllCancel(t *testing.T) {
	data := encodeV2Bytes(t, fanOutTrace(12))
	at := int64(layoutV2(t, data, traceMagicV2).entries[4].Offset)
	for _, workers := range []int{1, 4} {
		for _, pre := range []bool{false, true} {
			before := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			if pre {
				cancel()
			}
			var r io.Reader = cancelOnBlock{bytes.NewReader(data), at, cancel}
			d, err := NewDecoderWith(r, DecoderOptions{Workers: workers, Ctx: ctx})
			if err != nil {
				t.Fatal(err)
			}
			err = d.blocks.ReadAll(func(int, *RankTrace) {})
			cancel()
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("workers=%d pre-cancelled=%v: ReadAll = %v, want context.Canceled", workers, pre, err)
			}
			waitGoroutines(t, before)
		}
	}
}

// TestRankAtShape: only a version-2 container on a random-access input,
// not yet read through NextRank, is read by index; RankAt(i) returns the
// i-th block's rank, and fails once the decoder is closed.
func TestRankAtShape(t *testing.T) {
	tr := fanOutTrace(5)
	v2 := encodeV2Bytes(t, tr)
	var v1 bytes.Buffer
	if err := Encode(&v1, tr); err != nil {
		t.Fatal(err)
	}
	for name, r := range map[string]io.Reader{
		"v1":        bytes.NewReader(v1.Bytes()),
		"v2-stream": streamOnly{bytes.NewReader(v2)},
	} {
		d, err := NewDecoder(r)
		if err != nil {
			t.Fatal(err)
		}
		if RankAt(d) != nil {
			t.Errorf("%s: RankAt offers an indexed reader", name)
		}
	}
	d, err := NewDecoder(bytes.NewReader(v2))
	if err != nil {
		t.Fatal(err)
	}
	at := RankAt(d)
	if at == nil {
		t.Fatal("random-access v2: RankAt = nil")
	}
	for _, i := range []int{4, 0, 2} {
		rt, err := at(i)
		if err != nil {
			t.Fatalf("rank %d: %v", i, err)
		}
		if rt.Rank != tr.Ranks[i].Rank || len(rt.Events) != len(tr.Ranks[i].Events) || rt.Events[0] != tr.Ranks[i].Events[0] {
			t.Errorf("rank %d: read rank %d with %d events, want rank %d with %d", i, rt.Rank, len(rt.Events),
				tr.Ranks[i].Rank, len(tr.Ranks[i].Events))
		}
		d.Recycle(rt)
	}
	d.Close()
	if _, err := at(1); err == nil {
		t.Error("RankAt's reader read a rank after Close")
	}
	// A decoder already read in order stays in order.
	d, err = NewDecoder(bytes.NewReader(v2))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if _, err := d.NextRank(); err != nil {
		t.Fatal(err)
	}
	if RankAt(d) != nil {
		t.Error("RankAt offers an indexed reader after NextRank")
	}
}
