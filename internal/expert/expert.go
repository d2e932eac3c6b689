// Package expert is this repository's stand-in for the KOJAK EXPERT
// analyzer: it reads an event trace (original or reconstructed) and
// produces performance diagnoses — (metric, code location, per-rank
// severity) triples — for the inefficiency patterns the paper's
// benchmarks plant: Late Sender, Late Receiver, Early Gather/Reduce,
// Late Broadcast, Wait at Barrier and Wait at N×N, plus plain per-
// location execution time.
//
// Pairing is positional, as in MPI semantics: the k-th send on a
// (src,dst,tag) channel matches the k-th receive, and the k-th collective
// call of every rank forms one instance. Reduction preserves per-rank
// event order, so the pairing survives reconstruction even when
// timestamps skew.
//
// Like the real EXPERT, the analyzer behaves as a consumer of the merged,
// time-ordered event stream: an event's effective exit is clipped at the
// next event's entry on the same rank. Faithful traces are unaffected
// (events never overlap), but reconstructed traces whose representative
// segments are longer or shorter than the executions they stand in for
// produce overlaps — and then clipped, even *negative*, severities. This
// nonlinearity is what lets averaging methods (iter_avg) and coarse
// matches lose diagnoses, and it reproduces the negative severities the
// paper observed for several methods. Point-to-point and rooted-
// collective severities are additionally unclamped (e.g. Late Sender =
// send.enter − recv.enter), a second source of sign flips under skew.
package expert

import (
	"fmt"
	"sort"

	"repro/internal/bufpool"
	"repro/internal/trace"
)

// Metric identifiers.
const (
	// MetricExecution is inclusive time per location per rank.
	MetricExecution = "execution"
	// MetricLateSender is receiver blocking caused by a late eager send.
	MetricLateSender = "late_sender"
	// MetricLateReceiver is sender blocking in a synchronous send caused
	// by a late receive.
	MetricLateReceiver = "late_receiver"
	// MetricEarlyGather is root waiting in Gather/Reduce for the last
	// contributor (KOJAK: Early Reduce / Wait at N×1).
	MetricEarlyGather = "early_gather"
	// MetricLateBroadcast is non-root waiting in Bcast for the root.
	MetricLateBroadcast = "late_broadcast"
	// MetricWaitBarrier is time from barrier entry to the last entry.
	MetricWaitBarrier = "wait_barrier"
	// MetricWaitNxN is the same wait in N-to-N collectives.
	MetricWaitNxN = "wait_nxn"
)

// MetricNames lists all metrics the analyzer produces.
var MetricNames = []string{
	MetricExecution, MetricLateSender, MetricLateReceiver,
	MetricEarlyGather, MetricLateBroadcast, MetricWaitBarrier, MetricWaitNxN,
}

// Abbrev returns the short chart label used in the paper's figures
// (e.g. "NN" for Wait at N×N, "LS" for Late Sender).
func Abbrev(metric string) string {
	switch metric {
	case MetricExecution:
		return "EX"
	case MetricLateSender:
		return "LS"
	case MetricLateReceiver:
		return "LR"
	case MetricEarlyGather:
		return "N1"
	case MetricLateBroadcast:
		return "1N"
	case MetricWaitBarrier:
		return "BA"
	case MetricWaitNxN:
		return "NN"
	}
	return metric
}

// Key addresses one diagnosis cell: a metric at a code location.
type Key struct {
	Metric   string
	Location string
}

func (k Key) String() string { return k.Metric + "@" + k.Location }

// Diagnosis is the analyzer's output for one trace.
type Diagnosis struct {
	// Name is the analyzed trace's name.
	Name string
	// NumRanks is the process count.
	NumRanks int
	// WallTime is the trace's end time (µs), the normalization basis for
	// significance decisions.
	WallTime float64
	// Sev maps each (metric, location) to the per-rank severity vector
	// in µs, of length and capacity NumRanks. Severities of wait metrics
	// may be negative on skewed traces.
	Sev map[Key][]float64
	// FullBytes is the analyzed trace's TRC1 container size
	// (trace.EncodedSize), the denominator of the file-size criterion.
	// Analyze records it, so a trace scored against many reductions is
	// sized once; AnalyzeReduced leaves it 0.
	FullBytes int64
}

// Keys returns the diagnosis cells in deterministic (metric, location)
// order.
func (d *Diagnosis) Keys() []Key {
	keys := make([]Key, 0, len(d.Sev))
	for k := range d.Sev {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Metric != keys[j].Metric {
			return keys[i].Metric < keys[j].Metric
		}
		return keys[i].Location < keys[j].Location
	})
	return keys
}

// Total returns the sum of the severity vector for k (0 if absent).
func (d *Diagnosis) Total(k Key) float64 {
	var sum float64
	for _, v := range d.Sev[k] {
		sum += v
	}
	return sum
}

// MaxAbs returns the largest |severity| over all cells and ranks.
func (d *Diagnosis) MaxAbs() float64 {
	var m float64
	for _, v := range d.Sev {
		for _, x := range v {
			if x < 0 {
				x = -x
			}
			if x > m {
				m = x
			}
		}
	}
	return m
}

// metric is the engine's index of a metric; metricNames maps it back to
// the metric's name in a copy of MetricNames no caller can modify.
type metric uint8

const (
	mExecution metric = iota
	mLateSender
	mLateReceiver
	mEarlyGather
	mLateBroadcast
	mWaitBarrier
	mWaitNxN
	numMetrics
)

var metricNames = [numMetrics]string{
	MetricExecution, MetricLateSender, MetricLateReceiver,
	MetricEarlyGather, MetricLateBroadcast, MetricWaitBarrier, MetricWaitNxN,
}

// cell is one diagnosis cell: a metric at an interned location.
type cell struct {
	m   metric
	loc int32
}

// chanKey identifies a point-to-point channel; positional pairing happens
// per channel.
type chanKey struct {
	src, dst, tag int32
}

// commRec is one communication event placed for pairing: absolute enter,
// clipped exit, interned location, root and kind. Its rank is implied by
// the stream that holds it.
type commRec struct {
	enter, exit trace.Time
	loc, root   int32
	kind        trace.EventKind
}

// analysis is the dense engine behind Analyze and AnalyzeReduced. It
// interns every location once, gives every (metric, location) cell one
// row of a single rows × ranks severity array, and gives every channel a
// slot the first time an event names it. The pairing streams are counted
// before anything is placed, then carved exactly sized out of one pooled
// buffer (carve), so placement never regrows a stream; release returns
// the buffer. A Diagnosis aliases only the severity array, which is
// never pooled.
type analysis struct {
	nRanks int

	locIdx   map[string]int32
	locs     []string
	lastName string
	lastLoc  int32 // loc of lastName, -1 before the first intern

	rowOf []int32 // loc*numMetrics + metric → severity row, -1 if absent
	cells []cell  // row → cell
	sev   []float64

	slotOf map[chanKey]int32
	chans  []chanKey // slot → channel
	// Streams 0..nRanks-1 hold each rank's collective calls; channel slot
	// s owns stream nRanks+2s (its sends) and nRanks+2s+1 (its receives).
	count   []int
	streams [][]commRec
	placed  []commRec // the storage carve divides among the streams
}

// The pools behind the analyzers' per-call buffers: the carved pairing
// streams, Analyze's stream index per communication event, and
// AnalyzeReduced's execution counts, profiles, communication events and
// clip bounds. Each call returns what it drew before it returns.
var (
	commRecs    bufpool.Pool[commRec]
	streamIDs   bufpool.Pool[int32]
	execCounts  bufpool.Pool[int]
	repProfiles bufpool.Pool[repProfile]
	repComms    bufpool.Pool[repComm]
	clipBounds  bufpool.Pool[trace.Time]
)

func newAnalysis(nRanks int) *analysis {
	return &analysis{
		nRanks:  nRanks,
		locIdx:  map[string]int32{},
		lastLoc: -1,
		slotOf:  map[chanKey]int32{},
		count:   make([]int, nRanks),
	}
}

// loc interns a location name. Consecutive events often share a name, so
// the map is probed only when the name changes.
func (a *analysis) loc(name string) int32 {
	if a.lastLoc >= 0 && name == a.lastName {
		return a.lastLoc
	}
	id, ok := a.locIdx[name]
	if !ok {
		id = int32(len(a.locs))
		a.locIdx[name] = id
		a.locs = append(a.locs, name)
		for range numMetrics {
			a.rowOf = append(a.rowOf, -1)
		}
	}
	a.lastName, a.lastLoc = name, id
	return id
}

// row returns the severity row of the (m, loc) cell, creating the cell on
// first use: a cell exists exactly when some severity was added to it.
func (a *analysis) row(m metric, loc int32) int {
	i := int(loc)*int(numMetrics) + int(m)
	if r := a.rowOf[i]; r >= 0 {
		return int(r)
	}
	r := len(a.cells)
	a.rowOf[i] = int32(r)
	a.cells = append(a.cells, cell{m: m, loc: loc})
	a.sev = append(a.sev, make([]float64, a.nRanks)...)
	return r
}

func (a *analysis) add(m metric, loc int32, rank int, amount trace.Time) {
	a.sev[a.row(m, loc)*a.nRanks+rank] += float64(amount)
}

// stream returns the pairing stream of rank's event e, giving its channel
// a slot on first use, or -1 when e is no communication event.
func (a *analysis) stream(rank int, e *trace.Event) int {
	var k chanKey
	switch {
	case e.Kind == trace.KindSend || e.Kind == trace.KindSsend:
		k = chanKey{src: int32(rank), dst: e.Peer, tag: e.Tag}
	case e.Kind == trace.KindRecv:
		k = chanKey{src: e.Peer, dst: int32(rank), tag: e.Tag}
	case e.Kind.IsCollective():
		return rank
	default:
		return -1
	}
	slot, ok := a.slotOf[k]
	if !ok {
		slot = int32(len(a.chans))
		a.slotOf[k] = slot
		a.chans = append(a.chans, k)
		a.count = append(a.count, 0, 0)
	}
	st := a.nRanks + 2*int(slot)
	if e.Kind == trace.KindRecv {
		st++
	}
	return st
}

// carve gives every stream its counted capacity out of one pooled
// buffer.
func (a *analysis) carve() {
	total := 0
	for _, n := range a.count {
		total += n
	}
	a.placed = commRecs.Get(total)
	buf := a.placed[:total]
	a.streams = make([][]commRec, len(a.count))
	off := 0
	for st, n := range a.count {
		a.streams[st] = buf[off : off : off+n]
		off += n
	}
}

// release returns the carved stream storage to its pool.
func (a *analysis) release() {
	commRecs.Put(a.placed)
	a.placed, a.streams = nil, nil
}

// score runs the point-to-point and collective pattern analyses over the
// placed streams.
func (a *analysis) score() error {
	// Point-to-point patterns: positional pairing per channel.
	for slot, k := range a.chans {
		ss, rr := a.streams[a.nRanks+2*slot], a.streams[a.nRanks+2*slot+1]
		if len(ss) == 0 {
			if len(rr) > 0 {
				return fmt.Errorf("expert: channel %d->%d tag %d has %d recvs but no sends",
					k.src, k.dst, k.tag, len(rr))
			}
			continue
		}
		if len(rr) != len(ss) {
			return fmt.Errorf("expert: channel %d->%d tag %d has %d sends but %d recvs",
				k.src, k.dst, k.tag, len(ss), len(rr))
		}
		for i := range ss {
			s, r := &ss[i], &rr[i]
			switch s.kind {
			case trace.KindSend:
				// Waiting cannot extend past the receive's (clipped) exit.
				a.add(mLateSender, r.loc, int(k.dst), min(s.enter, r.exit)-r.enter)
			case trace.KindSsend:
				a.add(mLateReceiver, s.loc, int(k.src), min(r.enter, s.exit)-s.enter)
				// In a rendezvous the receiver also blocks when the sender
				// is late — the Late Sender pattern on the receive side.
				a.add(mLateSender, r.loc, int(k.dst), min(s.enter, r.exit)-r.enter)
			}
		}
	}

	// Collective patterns: the k-th collective call of every rank forms
	// one instance (collectives are globally ordered per communicator).
	n := 0
	for r := range a.nRanks {
		n = max(n, len(a.streams[r]))
	}
	for i := range n {
		for r := range a.nRanks {
			if i >= len(a.streams[r]) {
				return fmt.Errorf("expert: rank %d has %d collective calls, others have more", r, len(a.streams[r]))
			}
		}
		if err := a.collective(i); err != nil {
			return fmt.Errorf("expert: collective occurrence %d: %w", i, err)
		}
	}
	return nil
}

// collective scores the i-th collective instance: call i of every rank.
func (a *analysis) collective(i int) error {
	inst := func(r int) *commRec { return &a.streams[r][i] }
	kind, loc, root := inst(0).kind, inst(0).loc, inst(0).root
	var lastEnter trace.Time
	for r := range a.nRanks {
		e := inst(r)
		if e.kind != kind || e.loc != loc || e.root != root {
			return fmt.Errorf("rank %d calls %s(%s root=%d), rank 0 calls %s(%s root=%d)",
				r, a.locs[e.loc], e.kind, e.root, a.locs[loc], kind, root)
		}
		lastEnter = max(lastEnter, e.enter)
	}
	switch kind {
	case trace.KindGather, trace.KindReduce, trace.KindBcast:
		if root < 0 || int(root) >= a.nRanks {
			return fmt.Errorf("%s(%s) names root %d of %d ranks", a.locs[loc], kind, root, a.nRanks)
		}
	}
	switch kind {
	case trace.KindBarrier:
		for r := range a.nRanks {
			e := inst(r)
			a.add(mWaitBarrier, loc, r, min(lastEnter, e.exit)-e.enter)
		}
	case trace.KindAllgather, trace.KindAlltoall, trace.KindAllreduce:
		for r := range a.nRanks {
			e := inst(r)
			a.add(mWaitNxN, loc, r, min(lastEnter, e.exit)-e.enter)
		}
	case trace.KindGather, trace.KindReduce:
		// Root waits for the last contributor; unclamped, so a root that
		// arrives last reports negative severity.
		var lastOther trace.Time
		first := true
		for r := range a.nRanks {
			if e := inst(r); int32(r) != root && (first || e.enter > lastOther) {
				lastOther = e.enter
				first = false
			}
		}
		if !first {
			re := inst(int(root))
			a.add(mEarlyGather, loc, int(root), min(lastOther, re.exit)-re.enter)
		}
	case trace.KindBcast:
		rootEnter := inst(int(root)).enter
		for r := range a.nRanks {
			if e := inst(r); int32(r) != root {
				a.add(mLateBroadcast, loc, r, min(rootEnter, e.exit)-e.enter)
			}
		}
	default:
		return fmt.Errorf("unexpected collective kind %s", kind)
	}
	return nil
}

// diagnosis builds the result: each cell's vector is its row of the
// severity array, capped at NumRanks so an append cannot spill into the
// next row.
func (a *analysis) diagnosis(name string, wall trace.Time) *Diagnosis {
	d := &Diagnosis{
		Name:     name,
		NumRanks: a.nRanks,
		WallTime: float64(wall),
		Sev:      make(map[Key][]float64, len(a.cells)),
	}
	n := a.nRanks
	for row, c := range a.cells {
		d.Sev[Key{Metric: metricNames[c.m], Location: a.locs[c.loc]}] = a.sev[row*n : (row+1)*n : (row+1)*n]
	}
	return d
}

// nextEvent returns the index of the first non-marker event of evs at or
// after i, or len(evs).
func nextEvent(evs []trace.Event, i int) int {
	for i < len(evs) && evs[i].Kind.IsMarker() {
		i++
	}
	return i
}

// Analyze runs the pattern analysis over t and records t's container
// size in the diagnosis.
func Analyze(t *trace.Trace) (*Diagnosis, error) {
	a := newAnalysis(t.NumRanks())

	// First pass: wall time and stream sizes. The stream of every
	// communication event is recorded in walk order, so the second pass
	// resolves no channel again; an event has at most one stream.
	var wall trace.Time
	streamOf := streamIDs.Get(t.NumEvents())
	defer func() {
		streamIDs.Put(streamOf)
		a.release()
	}()
	for r := range t.Ranks {
		evs := t.Ranks[r].Events
		for i := range evs {
			wall = max(wall, evs[i].Exit)
			if st := a.stream(r, &evs[i]); st >= 0 {
				a.count[st]++
				streamOf = append(streamOf, int32(st))
			}
		}
	}
	a.carve()

	// Second pass over each rank's non-marker events, clipping each exit
	// at the next one's enter: the view a merged, time-ordered consumer
	// has of a (possibly skewed) trace.
	next := 0
	for r := range t.Ranks {
		evs := t.Ranks[r].Events
		for i := nextEvent(evs, 0); i < len(evs); {
			e := &evs[i]
			j := nextEvent(evs, i+1)
			exit := e.Exit
			if j < len(evs) {
				exit = min(exit, evs[j].Enter)
			}
			loc := a.loc(e.Name)
			a.add(mExecution, loc, r, exit-e.Enter)
			if e.Kind.IsPointToPoint() || e.Kind.IsCollective() {
				st := streamOf[next]
				a.streams[st] = append(a.streams[st], commRec{enter: e.Enter, exit: exit, loc: loc, root: e.Root, kind: e.Kind})
				next++
			}
			i = j
		}
	}
	if err := a.score(); err != nil {
		return nil, err
	}
	d := a.diagnosis(t.Name, wall)
	d.FullBytes = trace.EncodedSize(t)
	return d, nil
}
