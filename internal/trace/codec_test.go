package trace

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestEncodeDecodeRoundtrip(t *testing.T) {
	orig := validTrace()
	var buf bytes.Buffer
	if err := Encode(&buf, orig); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !reflect.DeepEqual(orig, got) {
		t.Errorf("roundtrip mismatch:\norig %+v\ngot  %+v", orig, got)
	}
}

func TestEncodedSizeGrowsWithEvents(t *testing.T) {
	small := New("t", 1)
	small.Ranks[0].Events = []Event{
		ev("s", KindMarkBegin, 0, 0), ev("w", KindCompute, 0, 1), ev("s", KindMarkEnd, 1, 1),
	}
	big := New("t", 1)
	for i := 0; i < 10; i++ {
		big.Ranks[0].Events = append(big.Ranks[0].Events,
			ev("s", KindMarkBegin, Time(3*i), Time(3*i)),
			ev("w", KindCompute, Time(3*i), Time(3*i+1)),
			ev("s", KindMarkEnd, Time(3*i+1), Time(3*i+1)))
	}
	ss, bs := EncodedSize(small), EncodedSize(big)
	if bs <= ss {
		t.Errorf("bigger trace should encode bigger: %d vs %d", bs, ss)
	}
	// The marginal cost of an event is exactly EventRecordSize once names
	// are in the table.
	if want := ss + 27*EventRecordSize; bs != want {
		t.Errorf("size %d, want %d (= %d + 27 records)", bs, want, ss)
	}
}

func TestDecodeErrors(t *testing.T) {
	orig := validTrace()
	var buf bytes.Buffer
	if err := Encode(&buf, orig); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	raw := buf.Bytes()

	t.Run("bad magic", func(t *testing.T) {
		bad := append([]byte("XXXX"), raw[4:]...)
		if _, err := Decode(bytes.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "magic") {
			t.Errorf("want magic error, got %v", err)
		}
	})
	t.Run("truncated", func(t *testing.T) {
		for _, cut := range []int{2, 10, len(raw) / 2, len(raw) - 3} {
			if _, err := Decode(bytes.NewReader(raw[:cut])); err == nil {
				t.Errorf("truncation at %d not detected", cut)
			}
		}
	})
	t.Run("empty", func(t *testing.T) {
		if _, err := Decode(bytes.NewReader(nil)); err == nil {
			t.Error("empty input should fail")
		}
	})
}

func TestGetEventRecordErrors(t *testing.T) {
	rec := make([]byte, EventRecordSize)
	PutEventRecord(rec, 7, ev("x", KindCompute, 1, 2))
	if _, err := GetEventRecord(rec, []string{"only"}); err == nil {
		t.Error("out-of-range name id should fail")
	}
	PutEventRecord(rec, 0, Event{Name: "x", Kind: EventKind(99)})
	if _, err := GetEventRecord(rec, []string{"x"}); err == nil {
		t.Error("unknown kind should fail")
	}
}

func TestNameTable(t *testing.T) {
	nt := NewNameTable()
	a := nt.ID("alpha")
	b := nt.ID("beta")
	if a == b {
		t.Error("distinct names must get distinct ids")
	}
	if nt.ID("alpha") != a {
		t.Error("repeated name must get same id")
	}
	names := nt.Names()
	if len(names) != 2 || names[a] != "alpha" || names[b] != "beta" {
		t.Errorf("Names() = %v", names)
	}
}

func TestWriteReadString(t *testing.T) {
	var buf bytes.Buffer
	for _, s := range []string{"", "x", "hello world", strings.Repeat("z", 1000)} {
		buf.Reset()
		if err := WriteString(&buf, s); err != nil {
			t.Fatalf("WriteString(%q): %v", s, err)
		}
		got, err := ReadString(&buf)
		if err != nil {
			t.Fatalf("ReadString(%q): %v", s, err)
		}
		if got != s {
			t.Errorf("roundtrip %q -> %q", s, got)
		}
	}
}

// randomTrace builds a structurally arbitrary (not necessarily
// marker-valid) trace for codec property testing; the codec must
// round-trip any event content.
func randomTrace(rng *rand.Rand) *Trace {
	names := []string{"a", "bb", "MPI_Recv", "do_work", "λ"}
	nr := 1 + rng.Intn(4)
	tr := New("rand", nr)
	for r := 0; r < nr; r++ {
		n := rng.Intn(30)
		for i := 0; i < n; i++ {
			tr.Ranks[r].Events = append(tr.Ranks[r].Events, Event{
				Name:  names[rng.Intn(len(names))],
				Kind:  EventKind(rng.Intn(int(numKinds))),
				Enter: rng.Int63n(1 << 40),
				Exit:  rng.Int63n(1 << 40),
				Peer:  int32(rng.Intn(8)) - 1,
				Tag:   int32(rng.Intn(100)),
				Bytes: rng.Int63n(1 << 30),
				Root:  int32(rng.Intn(8)) - 1,
			})
		}
	}
	return tr
}

func TestQuickCodecRoundtrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		orig := randomTrace(rng)
		var buf bytes.Buffer
		if err := Encode(&buf, orig); err != nil {
			t.Logf("encode: %v", err)
			return false
		}
		if int64(buf.Len()) != EncodedSize(orig) {
			t.Logf("size mismatch")
			return false
		}
		got, err := Decode(&buf)
		if err != nil {
			t.Logf("decode: %v", err)
			return false
		}
		return reflect.DeepEqual(orig, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
