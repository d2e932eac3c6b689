package expert

import (
	"fmt"

	"repro/internal/trace"
)

// This file keeps the original map-based EXPERT engine as the test
// oracle for the dense engine in expert.go and reduced.go: refAnalyze
// walks a materialized trace, keys every severity cell by its
// (metric, location) strings and every pairing stream by its channel.
// refAnalyze(red.Reconstruct()) is also the oracle for AnalyzeReduced.

// refAdd accumulates one severity into d, creating the cell on first use.
func refAdd(d *Diagnosis, metric, location string, rank int, amount float64) {
	k := Key{Metric: metric, Location: location}
	v, ok := d.Sev[k]
	if !ok {
		v = make([]float64, d.NumRanks)
		d.Sev[k] = v
	}
	v[rank] += amount
}

// refChanKey identifies a point-to-point channel; positional pairing
// happens per channel.
type refChanKey struct {
	src, dst int
	tag      int32
}

// refP2PEvent is one side of a point-to-point operation in stream order.
type refP2PEvent struct {
	rank int
	ev   trace.Event
}

// refCommStreams collects the communication events of a trace in
// per-rank stream order.
type refCommStreams struct {
	sends map[refChanKey][]refP2PEvent
	recvs map[refChanKey][]refP2PEvent
	colls [][]trace.Event
}

func newRefCommStreams(nRanks int) *refCommStreams {
	return &refCommStreams{
		sends: map[refChanKey][]refP2PEvent{},
		recvs: map[refChanKey][]refP2PEvent{},
		colls: make([][]trace.Event, nRanks),
	}
}

// refSendKey and refRecvKey name the channel an event belongs to;
// positional pairing matches the k-th send on a channel with its k-th
// receive.
func refSendKey(rank int, e trace.Event) refChanKey {
	return refChanKey{src: rank, dst: int(e.Peer), tag: e.Tag}
}
func refRecvKey(rank int, e trace.Event) refChanKey {
	return refChanKey{src: int(e.Peer), dst: rank, tag: e.Tag}
}

// add routes one (clipped) event of the given rank into the pairing
// streams; compute events are ignored. Events must arrive in per-rank
// stream order — that order is the pairing basis.
func (cs *refCommStreams) add(rank int, e trace.Event) {
	switch {
	case e.Kind == trace.KindSend || e.Kind == trace.KindSsend:
		k := refSendKey(rank, e)
		cs.sends[k] = append(cs.sends[k], refP2PEvent{rank: rank, ev: e})
	case e.Kind == trace.KindRecv:
		k := refRecvKey(rank, e)
		cs.recvs[k] = append(cs.recvs[k], refP2PEvent{rank: rank, ev: e})
	case e.Kind.IsCollective():
		cs.colls[rank] = append(cs.colls[rank], e)
	}
}

// score runs the point-to-point and collective pattern analyses over the
// collected streams, accumulating severities into d.
func (cs *refCommStreams) score(d *Diagnosis) error {
	// Point-to-point patterns: positional pairing per channel.
	for k, ss := range cs.sends {
		rr := cs.recvs[k]
		if len(rr) != len(ss) {
			return fmt.Errorf("expert: channel %d->%d tag %d has %d sends but %d recvs",
				k.src, k.dst, k.tag, len(ss), len(rr))
		}
		for i := range ss {
			s, r := ss[i], rr[i]
			switch s.ev.Kind {
			case trace.KindSend:
				// Waiting cannot extend past the receive's (clipped) exit.
				wait := minTime(s.ev.Enter, r.ev.Exit) - r.ev.Enter
				refAdd(d, MetricLateSender, r.ev.Name, r.rank, float64(wait))
			case trace.KindSsend:
				wait := minTime(r.ev.Enter, s.ev.Exit) - s.ev.Enter
				refAdd(d, MetricLateReceiver, s.ev.Name, s.rank, float64(wait))
				// In a rendezvous the receiver also blocks when the sender
				// is late — the Late Sender pattern on the receive side.
				rwait := minTime(s.ev.Enter, r.ev.Exit) - r.ev.Enter
				refAdd(d, MetricLateSender, r.ev.Name, r.rank, float64(rwait))
			}
		}
	}
	for k, rr := range cs.recvs {
		if _, ok := cs.sends[k]; !ok && len(rr) > 0 {
			return fmt.Errorf("expert: channel %d->%d tag %d has %d recvs but no sends",
				k.src, k.dst, k.tag, len(rr))
		}
	}

	// Collective patterns: the k-th collective call of every rank forms
	// one instance (collectives are globally ordered per communicator).
	n := 0
	for r := range cs.colls {
		if len(cs.colls[r]) > n {
			n = len(cs.colls[r])
		}
	}
	inst := make([]trace.Event, 0, len(cs.colls))
	for i := 0; i < n; i++ {
		inst = inst[:0]
		for r := range cs.colls {
			if i >= len(cs.colls[r]) {
				return fmt.Errorf("expert: rank %d has %d collective calls, others have more", r, len(cs.colls[r]))
			}
			inst = append(inst, cs.colls[r][i])
		}
		if err := refAnalyzeCollective(d, inst); err != nil {
			return fmt.Errorf("expert: collective occurrence %d: %w", i, err)
		}
	}
	return nil
}

// refClipExits returns rank r's non-marker events with each event's Exit
// clipped to the next event's Enter — the view a merged time-ordered
// consumer has of a (possibly skewed) trace.
func refClipExits(rt *trace.RankTrace) []trace.Event {
	out := make([]trace.Event, 0, len(rt.Events))
	for _, e := range rt.Events {
		if e.Kind.IsMarker() {
			continue
		}
		out = append(out, e)
	}
	for i := 0; i+1 < len(out); i++ {
		if out[i].Exit > out[i+1].Enter {
			out[i].Exit = out[i+1].Enter
		}
	}
	return out
}

// refAnalyze runs the pattern analysis over t.
func refAnalyze(t *trace.Trace) (*Diagnosis, error) {
	d := &Diagnosis{
		Name:     t.Name,
		NumRanks: t.NumRanks(),
		WallTime: float64(t.EndTime()),
		Sev:      map[Key][]float64{},
	}
	cs := newRefCommStreams(t.NumRanks())
	for r := range t.Ranks {
		for _, e := range refClipExits(&t.Ranks[r]) {
			refAdd(d, MetricExecution, e.Name, r, float64(e.Duration()))
			cs.add(r, e)
		}
	}
	if err := cs.score(d); err != nil {
		return nil, err
	}
	return d, nil
}

// refAnalyzeCollective scores one collective instance; inst is indexed
// by rank.
func refAnalyzeCollective(d *Diagnosis, inst []trace.Event) error {
	kind, name, root := inst[0].Kind, inst[0].Name, inst[0].Root
	var lastEnter trace.Time
	for r, e := range inst {
		if e.Kind != kind || e.Name != name || e.Root != root {
			return fmt.Errorf("rank %d calls %s(%s root=%d), rank 0 calls %s(%s root=%d)",
				r, e.Name, e.Kind, e.Root, name, kind, root)
		}
		if e.Enter > lastEnter {
			lastEnter = e.Enter
		}
	}
	switch kind {
	case trace.KindGather, trace.KindReduce, trace.KindBcast:
		if root < 0 || int(root) >= len(inst) {
			return fmt.Errorf("%s(%s) names root %d of %d ranks", name, kind, root, len(inst))
		}
	}
	switch kind {
	case trace.KindBarrier:
		for r, e := range inst {
			refAdd(d, MetricWaitBarrier, name, r, float64(minTime(lastEnter, e.Exit)-e.Enter))
		}
	case trace.KindAllgather, trace.KindAlltoall, trace.KindAllreduce:
		for r, e := range inst {
			refAdd(d, MetricWaitNxN, name, r, float64(minTime(lastEnter, e.Exit)-e.Enter))
		}
	case trace.KindGather, trace.KindReduce:
		// Root waits for the last contributor; unclamped, so a root that
		// arrives last reports negative severity.
		var lastOther trace.Time
		first := true
		for r, e := range inst {
			if int32(r) == root {
				continue
			}
			if first || e.Enter > lastOther {
				lastOther = e.Enter
				first = false
			}
		}
		if !first {
			re := inst[root]
			refAdd(d, MetricEarlyGather, name, int(root), float64(minTime(lastOther, re.Exit)-re.Enter))
		}
	case trace.KindBcast:
		rootEnter := inst[root].Enter
		for r, e := range inst {
			if int32(r) == root {
				continue
			}
			refAdd(d, MetricLateBroadcast, name, r, float64(minTime(rootEnter, e.Exit)-e.Enter))
		}
	default:
		return fmt.Errorf("unexpected collective kind %s", kind)
	}
	return nil
}

func minTime(a, b trace.Time) trace.Time {
	if a < b {
		return a
	}
	return b
}
