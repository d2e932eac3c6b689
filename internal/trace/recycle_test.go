package trace

import (
	"bytes"
	"io"
	"reflect"
	"testing"
)

// raceEnabled reports a build with the race detector (race_test.go),
// whose sync.Pool drops a quarter of all Puts at random: a test may
// recycle under it but not assert that storage was reused.
var raceEnabled bool

// TestDecoderRecycleSafety: Recycle tolerates nil ranks and ranks with
// no event storage, on every decoder version.
func TestDecoderRecycleSafety(t *testing.T) {
	data := encodeV2Bytes(t, v2TestTrace())
	d, err := NewDecoder(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("NewDecoder: %v", err)
	}
	defer d.Close()
	d.Recycle(nil)
	d.Recycle(&RankTrace{Rank: 1})
	rt := &RankTrace{Rank: 2, Events: make([]Event, 3, 8)}
	d.Recycle(rt)
	if rt.Events != nil {
		t.Errorf("Recycle left rt.Events = %v, want nil", rt.Events)
	}
	d.Recycle(rt) // second recycle of the same rank is a no-op
}

// TestDecodeWithRecycleParity: recycling each rank as soon as it is
// consumed must not change what later NextRank calls return, on all
// three decode paths (v1, v2 random-access, v2 sequential).
func TestDecodeWithRecycleParity(t *testing.T) {
	want := v2TestTrace()
	var v1buf bytes.Buffer
	if err := Encode(&v1buf, want); err != nil {
		t.Fatal(err)
	}
	v2data := encodeV2Bytes(t, want)
	for name, open := range map[string]func() io.Reader{
		"v1":               func() io.Reader { return bytes.NewReader(v1buf.Bytes()) },
		"v2-random-access": func() io.Reader { return bytes.NewReader(v2data) },
		"v2-sequential":    func() io.Reader { return streamOnly{bytes.NewReader(v2data)} },
	} {
		d, err := NewDecoder(open())
		if err != nil {
			t.Fatalf("%s: NewDecoder: %v", name, err)
		}
		got := &Trace{Name: d.Name()}
		for {
			rt, err := d.NextRank()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("%s: NextRank: %v", name, err)
			}
			// Deep-copy before recycling: the decoder may overwrite the
			// storage for the next rank.
			cp := RankTrace{Rank: rt.Rank, Events: append([]Event(nil), rt.Events...)}
			if len(cp.Events) == 0 {
				cp.Events = nil
			}
			got.Ranks = append(got.Ranks, cp)
			d.Recycle(rt)
		}
		d.Close()
		if !reflect.DeepEqual(want, got) {
			t.Errorf("%s: decode with recycling differs:\nwant %+v\ngot  %+v", name, want, got)
		}
	}
}

// TestDecodeRecycleReusesStorage: on every decode path the next rank
// must land in the storage just recycled, not a fresh allocation. The
// race detector drops pooled buffers at random, so only the reuse
// assertion is skipped there.
func TestDecodeRecycleReusesStorage(t *testing.T) {
	want := v2TestTrace()
	var v1buf bytes.Buffer
	if err := Encode(&v1buf, want); err != nil {
		t.Fatal(err)
	}
	v2data := encodeV2Bytes(t, want)
	for name, open := range map[string]func() io.Reader{
		"v1":               func() io.Reader { return bytes.NewReader(v1buf.Bytes()) },
		"v2-random-access": func() io.Reader { return bytes.NewReader(v2data) },
		"v2-sequential":    func() io.Reader { return streamOnly{bytes.NewReader(v2data)} },
	} {
		d, err := NewDecoder(open())
		if err != nil {
			t.Fatalf("%s: NewDecoder: %v", name, err)
		}
		first, err := d.NextRank()
		if err != nil {
			t.Fatalf("%s: NextRank: %v", name, err)
		}
		p0 := &first.Events[0]
		d.Recycle(first)
		second, err := d.NextRank()
		if err != nil {
			t.Fatalf("%s: NextRank 2: %v", name, err)
		}
		if &second.Events[0] != p0 && !raceEnabled {
			t.Errorf("%s: second rank did not reuse the recycled buffer", name)
		}
		d.Close()
	}
}

// TestRecycleCrossesDecoders: storage recycled from one decoder's ranks
// is drawn by another decoder's next rank of the same size, on every
// decode path, because the pool is process-wide.
func TestRecycleCrossesDecoders(t *testing.T) {
	want := v2TestTrace()
	var v1buf bytes.Buffer
	if err := Encode(&v1buf, want); err != nil {
		t.Fatal(err)
	}
	v2data := encodeV2Bytes(t, want)
	open := map[string]func() io.Reader{
		"v1":               func() io.Reader { return bytes.NewReader(v1buf.Bytes()) },
		"v2-random-access": func() io.Reader { return bytes.NewReader(v2data) },
		"v2-sequential":    func() io.Reader { return streamOnly{bytes.NewReader(v2data)} },
	}
	for from, openA := range open {
		for to, openB := range open {
			a, err := NewDecoder(openA())
			if err != nil {
				t.Fatal(err)
			}
			rt, err := a.NextRank()
			if err != nil {
				t.Fatalf("%s: NextRank: %v", from, err)
			}
			p0 := &rt.Events[0]
			a.Recycle(rt)
			a.Close()
			b, err := NewDecoder(openB())
			if err != nil {
				t.Fatal(err)
			}
			got, err := b.NextRank()
			if err != nil {
				t.Fatalf("%s: NextRank: %v", to, err)
			}
			if !reflect.DeepEqual(got.Events, want.Ranks[0].Events) {
				t.Errorf("%s -> %s: rank 0 decoded into recycled storage differs", from, to)
			}
			if &got.Events[0] != p0 && !raceEnabled {
				t.Errorf("%s -> %s: the second decoder did not draw the recycled buffer", from, to)
			}
			b.Close()
		}
	}
}
