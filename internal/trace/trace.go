// Package trace defines the event-trace data model used throughout the
// repository: timestamped function entry/exit events with message-passing
// parameters, per-rank traces, and whole-application traces, plus the
// TRC1 and TRC2 binary trace codecs and the framing every container
// shares, the reduced ones included: Family.Write and Open (byte-level
// spec in docs/FORMATS.md).
//
// Times are int64 microseconds from the start of the run. The unit matters
// only in that the benchmark generators produce ~1 ms (= 1000 unit) work
// periods, so the paper's absDiff threshold sweep of 10^1..10^6 "time
// units" lands in the same regime here.
package trace

import (
	"fmt"
	"sort"
)

// Time is a timestamp or duration in microseconds.
type Time = int64

// EventKind classifies an event record.
type EventKind uint8

// Event kinds. Communication kinds carry message parameters that the
// analyzer uses for pairing; marker kinds delimit segments.
const (
	// KindCompute is a plain function execution (e.g. do_work).
	KindCompute EventKind = iota
	// KindSend is an eager (buffered) point-to-point send.
	KindSend
	// KindSsend is a synchronous (rendezvous) point-to-point send.
	KindSsend
	// KindRecv is a blocking point-to-point receive.
	KindRecv
	// KindBcast is a one-to-N broadcast collective.
	KindBcast
	// KindGather is an N-to-one gather collective.
	KindGather
	// KindReduce is an N-to-one reduction collective.
	KindReduce
	// KindBarrier is an N-to-N barrier.
	KindBarrier
	// KindAllgather is an N-to-N allgather collective.
	KindAllgather
	// KindAlltoall is an N-to-N all-to-all exchange.
	KindAlltoall
	// KindAllreduce is an N-to-N reduction collective.
	KindAllreduce
	// KindMarkBegin is a segment-begin marker; Name holds the context.
	KindMarkBegin
	// KindMarkEnd is a segment-end marker; Name holds the context.
	KindMarkEnd

	numKinds
)

var kindNames = [...]string{
	KindCompute:   "compute",
	KindSend:      "send",
	KindSsend:     "ssend",
	KindRecv:      "recv",
	KindBcast:     "bcast",
	KindGather:    "gather",
	KindReduce:    "reduce",
	KindBarrier:   "barrier",
	KindAllgather: "allgather",
	KindAlltoall:  "alltoall",
	KindAllreduce: "allreduce",
	KindMarkBegin: "mark-begin",
	KindMarkEnd:   "mark-end",
}

// String returns a short lowercase name for the kind.
func (k EventKind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// IsMarker reports whether the kind is a segment marker.
func (k EventKind) IsMarker() bool { return k == KindMarkBegin || k == KindMarkEnd }

// IsCollective reports whether the kind is a collective operation.
func (k EventKind) IsCollective() bool {
	switch k {
	case KindBcast, KindGather, KindReduce, KindBarrier, KindAllgather, KindAlltoall, KindAllreduce:
		return true
	}
	return false
}

// IsPointToPoint reports whether the kind is a point-to-point operation.
func (k EventKind) IsPointToPoint() bool {
	return k == KindSend || k == KindSsend || k == KindRecv
}

// NoPeer is the Peer/Root value for events without a partner rank.
const NoPeer int32 = -1

// Event is one traced program activity: a function entry/exit pair with
// message-passing parameters. For marker events Enter == Exit.
type Event struct {
	// Name is the traced function name ("MPI_Recv", "do_work") or, for
	// markers, the segment context ("main.1").
	Name string
	// Kind classifies the event.
	Kind EventKind
	// Enter and Exit are the entry and exit timestamps. Within stored
	// segments they are relative to the segment start.
	Enter Time
	Exit  Time
	// Peer is the partner rank for point-to-point events (destination for
	// sends, source for receives) and NoPeer otherwise.
	Peer int32
	// Tag is the message tag for point-to-point events.
	Tag int32
	// Bytes is the message payload size for communication events.
	Bytes int64
	// Root is the root rank for rooted collectives and NoPeer otherwise.
	Root int32
}

// Duration returns Exit - Enter.
func (e Event) Duration() Time { return e.Exit - e.Enter }

// SameShape reports whether two events have identical identity fields
// (everything except the timestamps). The paper requires this — same
// events in the same order with the same message-passing parameters — for
// two segments to be comparable at all.
func (e Event) SameShape(o Event) bool {
	return e.Name == o.Name && e.Kind == o.Kind && e.Peer == o.Peer &&
		e.Tag == o.Tag && e.Bytes == o.Bytes && e.Root == o.Root
}

func (e Event) String() string {
	return fmt.Sprintf("%s[%s %d..%d peer=%d tag=%d bytes=%d root=%d]",
		e.Name, e.Kind, e.Enter, e.Exit, e.Peer, e.Tag, e.Bytes, e.Root)
}

// RankTrace is the ordered event stream of a single process.
type RankTrace struct {
	Rank   int
	Events []Event
}

// Trace is a complete application trace: one event stream per rank.
type Trace struct {
	// Name identifies the workload (e.g. "late_sender", "sweep3d_8p").
	Name string
	// Ranks holds one RankTrace per process, indexed by rank.
	Ranks []RankTrace
}

// New returns an empty trace with n ranks.
func New(name string, n int) *Trace {
	t := &Trace{Name: name, Ranks: make([]RankTrace, n)}
	for i := range t.Ranks {
		t.Ranks[i].Rank = i
	}
	return t
}

// NumRanks returns the number of per-process streams.
func (t *Trace) NumRanks() int { return len(t.Ranks) }

// NumEvents returns the total event count over all ranks.
func (t *Trace) NumEvents() int {
	n := 0
	for i := range t.Ranks {
		n += len(t.Ranks[i].Events)
	}
	return n
}

// EndTime returns the maximum exit timestamp in the trace, or 0 if empty.
func (t *Trace) EndTime() Time {
	var end Time
	for i := range t.Ranks {
		for _, e := range t.Ranks[i].Events {
			if e.Exit > end {
				end = e.Exit
			}
		}
	}
	return end
}

// Validate checks the structural invariants generators and the reducer
// rely on: per-rank events sorted by entry time, Exit >= Enter, and
// strictly alternating, non-nested segment markers with matching contexts.
func (t *Trace) Validate() error {
	for i := range t.Ranks {
		rt := &t.Ranks[i]
		var last Time
		open := "" // context of the currently open segment, if any
		for j, e := range rt.Events {
			if e.Exit < e.Enter {
				return fmt.Errorf("trace %q rank %d event %d (%s): exit %d before enter %d",
					t.Name, rt.Rank, j, e.Name, e.Exit, e.Enter)
			}
			if e.Enter < last {
				return fmt.Errorf("trace %q rank %d event %d (%s): enter %d before previous enter %d",
					t.Name, rt.Rank, j, e.Name, e.Enter, last)
			}
			last = e.Enter
			switch e.Kind {
			case KindMarkBegin:
				if open != "" {
					return fmt.Errorf("trace %q rank %d event %d: nested segment %q inside %q",
						t.Name, rt.Rank, j, e.Name, open)
				}
				open = e.Name
			case KindMarkEnd:
				if open == "" {
					return fmt.Errorf("trace %q rank %d event %d: segment end %q without begin",
						t.Name, rt.Rank, j, e.Name)
				}
				if open != e.Name {
					return fmt.Errorf("trace %q rank %d event %d: segment end %q does not match open %q",
						t.Name, rt.Rank, j, e.Name, open)
				}
				open = ""
			default:
				if open == "" {
					return fmt.Errorf("trace %q rank %d event %d (%s): event outside any segment",
						t.Name, rt.Rank, j, e.Name)
				}
			}
		}
		if open != "" {
			return fmt.Errorf("trace %q rank %d: segment %q never closed", t.Name, rt.Rank, open)
		}
	}
	return nil
}

// FunctionNames returns the sorted set of non-marker event names in the
// trace.
func (t *Trace) FunctionNames() []string {
	seen := map[string]bool{}
	for i := range t.Ranks {
		for _, e := range t.Ranks[i].Events {
			if !e.Kind.IsMarker() {
				seen[e.Name] = true
			}
		}
	}
	names := make([]string, 0, len(seen))
	for n := range seen {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Timestamps appends every Enter and Exit stamp of rank r's non-marker
// events, in event order, to dst and returns the extended slice. It is the
// pairing basis of the approximation-distance metric.
func (t *Trace) Timestamps(r int, dst []Time) []Time {
	for _, e := range t.Ranks[r].Events {
		if e.Kind.IsMarker() {
			continue
		}
		dst = append(dst, e.Enter, e.Exit)
	}
	return dst
}
