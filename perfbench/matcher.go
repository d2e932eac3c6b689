package main

import (
	"bytes"
	"fmt"
	"strconv"
	"time"

	"repro/internal/matchbench"
	"repro/internal/trace"
	"repro/tracered"
)

// matcher_worstcase takes the matcher benchmarks' worst-case stream —
// one pattern class, norm pruning defeated — and wraps it in begin/end
// markers as a TRC2 trace. Each pass reduces it with all nine methods
// under exact matching and under auto, where the class is large enough
// for the VP-tree and LSH indexes to engage. The scan kernels and the
// indexes do most of the work.

const (
	// matcherRanks is the trace's process count. It is fixed, not nproc,
	// so the exact outputs have committed digests on every machine.
	matcherRanks = 2
	// matcherOrders is how many candidate orders the seed chooses from;
	// each has committed digests.
	matcherOrders = 16
	// matcherSpacing separates consecutive segments on a rank, in
	// microseconds; every matchbench segment ends well before it.
	matcherSpacing = 100000
	// matcherSLO is the latency limit of one reduction.
	matcherSLO = 2 * time.Second
)

var matcherModes = []tracered.MatchMode{tracered.MatchModeExact, tracered.MatchModeAuto}

func matcherKey(order int, method string) string {
	return "matcher/" + strconv.Itoa(order) + "/" + method
}

// matcherOrder maps a seed to one of the committed candidate orders.
func matcherOrder(seed int64) int {
	return int(uint64(seed) % matcherOrders)
}

// matcherTrace builds the workload's trace for one candidate order. Each
// rank holds the class centers, each stored as a representative, then
// the jittered candidates in an order drawn from the order's own stream,
// each of which matches its center.
func matcherTrace(order int) *tracered.Trace {
	reps := matchbench.Reps(matchbench.DefaultClasses)
	cands := matchbench.Candidates(matchbench.DefaultClasses, matchbench.DefaultCandidates)
	r := newRNG(int64(order), streamMatcher)
	t := &tracered.Trace{Name: "matcher_worstcase_" + strconv.Itoa(order)}
	for rank := range matcherRanks {
		segs := append([]*tracered.Segment(nil), reps...)
		for _, i := range r.perm(len(cands)) {
			segs = append(segs, cands[i])
		}
		evs := make([]tracered.Event, 0, len(segs)*(matchbench.NumEvents+2))
		for i, s := range segs {
			start := tracered.Time(i) * matcherSpacing
			mark := tracered.Event{Name: s.Context, Kind: trace.KindMarkBegin, Enter: start, Exit: start, Peer: trace.NoPeer, Root: trace.NoPeer}
			evs = append(evs, mark)
			for _, e := range s.Events {
				e.Enter += start
				e.Exit += start
				evs = append(evs, e)
			}
			mark.Kind, mark.Enter, mark.Exit = trace.KindMarkEnd, start+s.End, start+s.End
			evs = append(evs, mark)
		}
		t.Ranks = append(t.Ranks, tracered.RankTrace{Rank: rank, Events: evs})
	}
	return t
}

// matcherInput is the workload's trace and its TRC2 container.
type matcherInput struct {
	order  int
	trace  *tracered.Trace
	events int
	trc    []byte
}

func buildMatcher(order int) (*matcherInput, error) {
	t := matcherTrace(order)
	var b bytes.Buffer
	if err := tracered.WriteTraceFormat(&b, t, tracered.FormatV2); err != nil {
		return nil, fmt.Errorf("encoding %s: %w", t.Name, err)
	}
	return &matcherInput{order: order, trace: t, events: t.NumEvents(), trc: b.Bytes()}, nil
}

// matcherOutput is one reduction of a pass, kept for scoring.
type matcherOutput struct {
	out []byte
	st  *tracered.ReduceStreamStats
}

func runMatcher(cfg *config) (*report, error) {
	order := matcherOrder(cfg.seed)
	in, setup, err := setUp(cfg.setupRuns, func() (*matcherInput, error) { return buildMatcher(order) })
	if err != nil {
		return nil, err
	}
	ck, err := newChecker(cfg)
	if err != nil {
		return nil, err
	}
	o := &ops{slo: matcherSLO}
	var last []matcherOutput
	var events int64
	var rates []float64
	var window time.Duration
	rt, peak, err := measured(cfg.traced, func() (err error) {
		rates, window, err = passLoop(cfg.seconds, func() (int64, error) {
			last = last[:0]
			for _, mode := range matcherModes {
				for _, method := range tracered.MethodNames {
					begin := time.Now()
					out, st, err := pipelineReduce(in.trc, method, mode, tracered.FormatV2, cfg.workers)
					if err == nil && mode == tracered.MatchModeExact {
						err = ck.verify(matcherKey(order, method), out)
					}
					o.record(time.Since(begin), err)
					if err == nil {
						last = append(last, matcherOutput{out, st})
					}
				}
			}
			o.endWindow()
			n := int64(in.events) * int64(len(matcherModes)*len(tracered.MethodNames))
			events += n
			return n, nil
		})
		return err
	})
	if err != nil {
		return nil, err
	}
	rep := newReport(window)
	rep.samples["passes"] = len(rates)
	rep.samples["reductions"] = len(o.latMs)
	if cfg.traced {
		rep.merge(o.tally)
		if err := finishTraced(cfg, ck, rep, rt, peak, func(d *layerDriver) error {
			return matcherLayers(d, in)
		}); err != nil {
			return nil, err
		}
		putServeLayers(rep.Metrics, nil, nil)
		return rep, nil
	}
	// Score the last pass's outputs after the window, so the window holds
	// the matcher's work. Approximate outputs have no digest; reading
	// them back is their check.
	var q quality
	full := in.trace
	diag, err := tracered.Analyze(full)
	if err != nil {
		return nil, err
	}
	for _, mo := range last {
		res, err := scoreOutput(mo.out, mo.st, full, diag, cfg.workers)
		if err != nil {
			o.fail(err)
			continue
		}
		q.add(len(in.trc), len(mo.out), mo.st.DegreeOfMatching(), res)
	}
	rep.merge(o.tally)
	m := rep.Metrics
	m.put("setup_s", "s", setup)
	m.put("events_per_s", "events/s", median(rates))
	m.put("alloc_bytes_per_event", "B", float64(rt.allocBytes)/float64(events))
	q.put(m)
	o.put(m)
	return rep, nil
}

// matcherLayers is matcher_worstcase's traced pass: every reduction of a
// pass, one layer call at a time.
func matcherLayers(d *layerDriver, in *matcherInput) error {
	for _, mode := range matcherModes {
		for _, method := range tracered.MethodNames {
			d.op(func() error {
				out, err := d.reduce(in.trc, method, mode, tracered.FormatV2)
				if err != nil {
					return err
				}
				if mode == tracered.MatchModeExact {
					return d.check(matcherKey(in.order, method), out)
				}
				_, err = d.readBack(out)
				return err
			})
		}
	}
	return nil
}
