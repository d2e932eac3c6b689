package expert

import (
	"testing"

	"repro/internal/core"
	"repro/internal/segment"
	"repro/internal/trace"
)

// fuzzReduced decodes fuzz bytes into a small reduced trace, one byte per
// field, reading zeros once the input runs out:
//
//	ranks (1 + b%4), then per rank:
//	  stored (b%4), then per stored segment:
//	    events (b%5), end (int8), then per event:
//	      kind (b%13), name (b%3: the kind's name, "w" or "x"),
//	      enter (int8), duration (int8), peer (b%6 - 1), tag (b%2),
//	      root (b%6 - 1)
//	  execs (b%6), then per execution: id (b%5 - 1), start (int8)
//
// Every kind is reachable, markers included, and so are negative stamps,
// out-of-range peers and roots, and out-of-range execution ids: all
// things the reduced-trace decoders accept.
func fuzzReduced(data []byte) *core.Reduced {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	signed := func() trace.Time { return trace.Time(int8(next())) }

	red := &core.Reduced{Name: "fuzz", Method: "fuzz", Ranks: make([]core.RankReduced, 1+next()%4)}
	for r := range red.Ranks {
		rr := &red.Ranks[r]
		rr.Rank = r
		for range next() % 4 {
			s := &segment.Segment{Context: "main.1", Rank: r, Weight: 1}
			nEvents := next() % 5
			s.End = signed()
			for range nEvents {
				kind := trace.EventKind(next() % 13)
				name := [...]string{kind.String(), "w", "x"}[next()%3]
				enter := signed()
				s.Events = append(s.Events, trace.Event{
					Name: name, Kind: kind, Enter: enter, Exit: enter + signed(),
					Peer: int32(next()%6 - 1), Tag: int32(next() % 2), Root: int32(next()%6 - 1),
				})
			}
			rr.Stored = append(rr.Stored, s)
		}
		for range next() % 6 {
			id := next()%5 - 1
			rr.Execs = append(rr.Execs, core.Exec{ID: id, Start: signed()})
		}
		red.TotalSegments += len(rr.Execs)
	}
	return red
}

// FuzzAnalyzeReduced holds both analyzers to the reference engine on
// small hostile reduced traces: AnalyzeReduced fails exactly when the
// reference fails on the reconstruction (or the reconstruction itself
// fails) and otherwise produces the identical diagnosis, and Analyze of
// the reconstruction matches the reference on it. Nothing may panic.
func FuzzAnalyzeReduced(f *testing.F) {
	// Kind bytes: 0 compute, 1 send, 2 ssend, 3 recv, 4 bcast, 5 gather,
	// 6 reduce, 7 barrier, 9 alltoall, 11 mark-begin. Peer and root
	// bytes are value+1, so 0 is NoPeer.
	oneColl := func(kind, root byte) []byte {
		// One segment holding one collective, executed once.
		return []byte{1, 1, 10, kind, 0, 0, 5, 0, 0, root, 1, 1, 0}
	}
	twoRanks := func(r0, r1 []byte) []byte {
		return append(append([]byte{1}, r0...), r1...)
	}
	coll := func(kind, root byte) []byte { return twoRanks(oneColl(kind, root), oneColl(kind, root)) }
	// A late sender: rank 0 sends to 1 at 40, rank 1 receives from 0 at 10.
	send := []byte{1, 1, 50, 1, 0, 40, 2, 2, 0, 0, 1, 1, 0}
	recv := []byte{1, 1, 50, 3, 0, 10, 35, 1, 0, 0, 1, 1, 0}
	seeds := [][]byte{
		{},
		twoRanks(send, recv),
		coll(5, 0),                             // gather with root -1
		coll(5, 3),                             // gather with root 2, the rank count
		coll(4, 5),                             // bcast with root 4, past the rank count
		coll(6, 1),                             // a well-formed reduce to root 0
		twoRanks(send, []byte{0, 0}),           // unbalanced channel
		twoRanks([]byte{0, 0}, recv),           // receive without a send
		twoRanks(oneColl(7, 0), []byte{0, 0}),  // collective count mismatch
		twoRanks(oneColl(7, 0), oneColl(9, 0)), // collective kind mismatch
		// A marker inside a stored segment, between two compute events.
		{0, 1, 3, 10, 0, 1, 0, 6, 0, 0, 0, 11, 0, 4, 0, 0, 0, 0, 0, 2, 5, 4, 0, 0, 0, 2, 1, 0, 1, 20},
		// A segment whose end and event exits are negative.
		{0, 1, 1, 0xfb, 0, 1, 0xf8, 1, 0, 0, 0, 1, 1, 8},
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		red := fuzzReduced(data)
		direct, err := AnalyzeReduced(red)
		recon, reconErr := red.Reconstruct()
		var ref *Diagnosis
		refErr := reconErr
		if reconErr == nil {
			ref, refErr = refAnalyze(recon)
		}
		if (err != nil) != (refErr != nil) {
			t.Fatalf("AnalyzeReduced error %v, reference error %v", err, refErr)
		}
		if err == nil {
			requireEqual(t, direct, ref)
		}
		if reconErr != nil {
			return
		}
		full, err := Analyze(recon)
		if (err != nil) != (refErr != nil) {
			t.Fatalf("Analyze error %v, reference error %v", err, refErr)
		}
		if err == nil {
			requireEqual(t, full, ref)
		}
	})
}
