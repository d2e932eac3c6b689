package main

import (
	"bytes"
	"fmt"
	"io"
	"runtime/metrics"
	"strings"
	"time"

	"repro/internal/core"
	"repro/tracered"
)

// The traced run drives each layer through its public calls, one call at
// a time on one goroutine, with a span around every call. Decoders read
// through a plain io.Reader, so v2 containers take their sequential path
// instead of a prefetching block pool, and each span holds only the work
// of the layer it names.

// indexMinClassSize is the core matcher's index threshold: under an
// approximate mode, a class with at least this many representatives is
// searched through its VP-tree or LSH index.
const indexMinClassSize = 32

// stageSumTolerancePct bounds the share of the traced pass's wall-clock
// time that no layer span covers — the pass's own loop and bookkeeping,
// in bench.* spans — before the stage-sum check fails the run.
const stageSumTolerancePct = 5.0

// traceModes are the match modes per-scan costs are reported for: the
// two the workloads run.
var traceModes = []tracered.MatchMode{tracered.MatchModeExact, tracered.MatchModeAuto}

// matchCounts is what the matcher saw for one method and mode.
type matchCounts struct {
	scans     int   // Scan calls, one per segment
	withClass int   // scans that found a comparable class
	hits      int   // scans that matched a representative
	indexed   int   // scans into classes of indexMinClassSize or more
	classMax  int   // largest class a scan searched
	ns        int64 // core.match self time
}

// reduceJob is one reduction of a pass, replayed through the pipeline
// for the parallel-efficiency baseline.
type reduceJob struct {
	src    []byte
	method string
	mode   tracered.MatchMode
	format tracered.Format
}

// layerDriver makes the layer calls of one pass. A nil tracer makes the
// same calls without spans: the baseline of the tracing overhead.
type layerDriver struct {
	tr *tracer
	ck *checker
	tally
	jobs  []reduceJob
	match map[string]*matchCounts

	decodeEvents int64
	decodeAlloc  uint64
	segments     int64
	encodeBytes  int64
	// stageNs is the self time of the pipeline's stages — rank decode,
	// split, match, encode — over the pass's reductions.
	stageNs int64

	allocs [1]metrics.Sample
}

func newLayerDriver(tr *tracer, ck *checker) *layerDriver {
	d := &layerDriver{tr: tr, ck: ck, match: map[string]*matchCounts{}}
	d.allocs[0].Name = "/gc/heap/allocs:bytes"
	return d
}

// heapAllocated reads the cumulative heap allocation counter; traced
// passes charge its growth across a decode call to the decoder.
func (d *layerDriver) heapAllocated() uint64 {
	if d.tr == nil {
		return 0
	}
	metrics.Read(d.allocs[:])
	return d.allocs[0].Value.Uint64()
}

// sequential hides b's random access, so decoders take their sequential
// path and decode on the calling goroutine.
func sequential(b []byte) io.Reader { return io.MultiReader(bytes.NewReader(b)) }

// op runs one operation of the pass inside a harness span and counts it.
func (d *layerDriver) op(f func() error) {
	id := d.tr.begin("bench.op")
	err := f()
	d.tr.end(id)
	d.add(err)
}

func (d *layerDriver) counts(method string, mode tracered.MatchMode) *matchCounts {
	k := method + "." + mode.String()
	c := d.match[k]
	if c == nil {
		c = &matchCounts{}
		d.match[k] = c
	}
	return c
}

// decodeFull decodes a whole trace container.
func (d *layerDriver) decodeFull(src []byte) (*tracered.Trace, error) {
	id := d.tr.begin("trace.decode")
	before := d.heapAllocated()
	t, err := tracered.ReadTrace(sequential(src))
	d.decodeAlloc += d.heapAllocated() - before
	d.tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("decoding a full trace: %w", err)
	}
	d.decodeEvents += int64(t.NumEvents())
	return t, nil
}

// signature computes an upload's content signature, the service's cache
// key.
func (d *layerDriver) signature(src []byte) error {
	id := d.tr.begin("trace.signature")
	_, err := tracered.TraceSignatureWith(sequential(src), tracered.DecoderOptions{Workers: 1})
	d.tr.end(id)
	return err
}

func (d *layerDriver) analyze(t *tracered.Trace) (*tracered.Diagnosis, error) {
	id := d.tr.begin("expert.analyze")
	diag, err := tracered.Analyze(t)
	d.tr.end(id)
	return diag, err
}

// reduce runs the pipeline's stages one call at a time: it decodes src
// rank by rank, splits and matches each rank, and encodes the reduction
// in format f.
func (d *layerDriver) reduce(src []byte, method string, mode tracered.MatchMode, f tracered.Format) ([]byte, error) {
	d.jobs = append(d.jobs, reduceJob{src, method, mode, f})
	p, err := tracered.DefaultMethod(method)
	if err != nil {
		return nil, err
	}
	id := d.tr.begin("trace.decode")
	dec, err := tracered.NewTraceDecoderWith(sequential(src), tracered.DecoderOptions{Workers: 1})
	d.stageNs += d.tr.end(id)
	if err != nil {
		return nil, err
	}
	red := &tracered.Reduced{Name: dec.Name(), Method: p.Name()}
	mc := d.counts(method, mode)
	for {
		rt, err := d.nextRank(dec)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("decoding %s: %w", dec.Name(), err)
		}
		segs, err := d.split(rt)
		if err != nil {
			return nil, fmt.Errorf("splitting %s: %w", dec.Name(), err)
		}
		red.Ranks = append(red.Ranks, d.matchRank(p, mode, len(red.Ranks), segs, red, mc))
	}
	id = d.tr.begin("core.encode")
	var out bytes.Buffer
	err = tracered.WriteReducedFormatWith(&out, red, f, tracered.EncoderOptions{Workers: 1})
	d.stageNs += d.tr.end(id)
	if err != nil {
		return nil, err
	}
	d.encodeBytes += int64(out.Len())
	return out.Bytes(), nil
}

func (d *layerDriver) nextRank(dec *tracered.TraceDecoder) (*tracered.RankTrace, error) {
	id := d.tr.begin("trace.decode")
	before := d.heapAllocated()
	rt, err := dec.NextRank()
	d.decodeAlloc += d.heapAllocated() - before
	d.stageNs += d.tr.end(id)
	if rt != nil {
		d.decodeEvents += int64(len(rt.Events))
	}
	return rt, err
}

func (d *layerDriver) split(rt *tracered.RankTrace) ([]*tracered.Segment, error) {
	id := d.tr.begin("segment.split")
	segs, err := splitRank(rt)
	d.stageNs += d.tr.end(id)
	d.segments += int64(len(segs))
	return segs, err
}

// splitRank cuts one rank's events into segments.
func splitRank(rt *tracered.RankTrace) ([]*tracered.Segment, error) {
	sp := tracered.NewSegmentSplitter(rt.Rank)
	var segs []*tracered.Segment
	for _, e := range rt.Events {
		s, err := sp.Feed(e)
		if err != nil {
			return nil, err
		}
		if s != nil {
			segs = append(segs, s)
		}
	}
	return segs, sp.Finish()
}

func (d *layerDriver) matchRank(p tracered.Method, mode tracered.MatchMode, rank int, segs []*tracered.Segment, red *tracered.Reduced, mc *matchCounts) tracered.RankReduced {
	id := d.tr.begin("core.match")
	rr := matchSegments(p, mode, rank, segs, red, mc)
	ns := d.tr.end(id)
	mc.ns += ns
	d.stageNs += ns
	return rr
}

// matchSegments runs one rank's segments through a core.Matcher the way
// the engine's RankReducer does, keeping the reduction's counters in red
// and counting what the matcher saw in mc.
func matchSegments(p tracered.Method, mode tracered.MatchMode, rank int, segs []*tracered.Segment, red *tracered.Reduced, mc *matchCounts) tracered.RankReduced {
	m := core.NewMatcherMode(p, mode)
	rr := tracered.RankReduced{Rank: rank}
	for _, s := range segs {
		cls, idx, cs := m.Scan(s)
		mc.scans++
		red.TotalSegments++
		if cls != nil {
			mc.withClass++
			red.PossibleMatches++
			n := cls.Len()
			mc.classMax = max(mc.classMax, n)
			if n >= indexMinClassSize {
				mc.indexed++
			}
		}
		if idx >= 0 {
			mc.hits++
			red.Matches++
			rr.Execs = append(rr.Execs, core.Exec{ID: cls.StoredID(idx), Start: s.Start})
			m.Absorb(cls, idx, s)
			continue
		}
		kept := s.Clone()
		kept.Start = 0
		rr.Execs = append(rr.Execs, core.Exec{ID: len(rr.Stored), Start: s.Start})
		rr.Stored = append(rr.Stored, kept)
		m.Insert(cls, kept, len(rr.Stored)-1, cs)
	}
	return rr
}

// check verifies an output against its committed digest.
func (d *layerDriver) check(key string, out []byte) error {
	id := d.tr.begin("check.digest")
	err := d.ck.verify(key, out)
	d.tr.end(id)
	return err
}

// readBack decodes a reduced container.
func (d *layerDriver) readBack(out []byte) (*tracered.Reduced, error) {
	id := d.tr.begin("core.decode_reduced")
	red, err := tracered.ReadReducedWith(sequential(out), tracered.DecoderOptions{Workers: 1})
	d.tr.end(id)
	return red, err
}

func (d *layerDriver) analyzeReduced(red *tracered.Reduced) (*tracered.Diagnosis, error) {
	id := d.tr.begin("expert.analyze_reduced")
	diag, err := tracered.AnalyzeReduced(red)
	d.tr.end(id)
	return diag, err
}

// score reads an output back and scores it the way ScoreReduced does,
// one criterion call at a time.
func (d *layerDriver) score(out []byte, full *tracered.Trace, fullDiag *tracered.Diagnosis) error {
	red, err := d.readBack(out)
	if err != nil {
		return err
	}
	id := d.tr.begin("core.approx_dist")
	_, err = tracered.ApproximationDistanceReduced(full, red, 0.9)
	d.tr.end(id)
	if err != nil {
		return err
	}
	diag, err := d.analyzeReduced(red)
	if err != nil {
		return err
	}
	id = d.tr.begin("cube.compare")
	tracered.CompareDiagnoses(fullDiag, diag)
	d.tr.end(id)
	return nil
}

// layerRun is a workload's traced pass with its two baselines.
type layerRun struct {
	d        *layerDriver
	spans    []span
	traced   time.Duration // wall-clock time of the traced pass
	untraced time.Duration // the same pass without spans
	pipeline time.Duration // the pass's reductions through the pipelined engine
}

// layerPasses runs pass on this goroutine untraced, traced, and untraced
// again — the faster untraced pass is the overhead's baseline, so warm-up
// is not charged to either side — then replays the traced pass's
// reductions through the pipelined engine with cfg.workers workers.
func layerPasses(cfg *config, ck *checker, pass func(*layerDriver) error) (*layerRun, error) {
	untracedPass := func() (time.Duration, error) {
		begin := time.Now()
		err := pass(newLayerDriver(nil, ck))
		return time.Since(begin), err
	}
	untraced, err := untracedPass()
	if err != nil {
		return nil, err
	}

	tr := newTracer()
	d := newLayerDriver(tr, ck)
	begin := time.Now()
	root := tr.begin("bench.pass")
	err = pass(d)
	tr.end(root)
	traced := time.Since(begin)
	if err != nil {
		return nil, err
	}

	again, err := untracedPass()
	if err != nil {
		return nil, err
	}
	untraced = min(untraced, again)

	begin = time.Now()
	for _, j := range d.jobs {
		if _, _, err := pipelineReduce(j.src, j.method, j.mode, j.format, cfg.workers); err != nil {
			return nil, err
		}
	}
	return &layerRun{d: d, spans: tr.spans, traced: traced, untraced: untraced, pipeline: time.Since(begin)}, nil
}

// put reports the pass's per-layer metrics and runs the stage-sum check.
func (lr *layerRun) put(m metricSet, workers int) error {
	self := map[string]int64{}
	var staged int64
	for _, s := range lr.spans {
		self[s.Name] += s.Self
		if !strings.HasPrefix(s.Name, "bench.") {
			staged += s.Self
		}
	}
	busy := func(name string) float64 { return float64(self[name]) / 1e9 }
	d := lr.d
	var all matchCounts
	for _, c := range d.match {
		all.scans += c.scans
		all.withClass += c.withClass
		all.hits += c.hits
		all.indexed += c.indexed
		all.classMax = max(all.classMax, c.classMax)
	}
	m.put("trace.decode.busy_s", "s", busy("trace.decode"))
	m.put("trace.decode.alloc_bytes_per_event", "B", float64(d.decodeAlloc)/float64(d.decodeEvents))
	m.put("trace.signature.busy_s", "s", busy("trace.signature"))
	m.put("segment.split.busy_s", "s", busy("segment.split"))
	m.put("segment.split.segments", "count", float64(d.segments))
	m.put("core.match.busy_s", "s", busy("core.match"))
	m.put("core.match.scans", "count", float64(all.scans))
	m.put("core.match.scans_indexed", "count", float64(all.indexed))
	m.put("core.match.hit_ratio", "ratio", float64(all.hits)/float64(all.withClass))
	m.put("core.match.class_size_max", "count", float64(all.classMax))
	for _, method := range tracered.MethodNames {
		for _, mode := range traceModes {
			c := d.counts(method, mode)
			m.put("core.match.ns_per_scan."+method+"."+mode.String(), "ns", float64(c.ns)/float64(c.scans))
		}
	}
	m.put("core.encode.busy_s", "s", busy("core.encode"))
	m.put("core.encode.bytes", "B", float64(d.encodeBytes))
	m.put("core.decode_reduced.busy_s", "s", busy("core.decode_reduced"))
	m.put("core.pipeline.parallel_efficiency", "ratio", float64(d.stageNs)/(float64(lr.pipeline)*float64(workers)))
	m.put("expert.analyze.busy_s", "s", busy("expert.analyze"))
	m.put("expert.analyze_reduced.busy_s", "s", busy("expert.analyze_reduced"))
	m.put("core.approx_dist.busy_s", "s", busy("core.approx_dist"))
	m.put("cube.compare.busy_s", "s", busy("cube.compare"))
	gap := 100 * float64(int64(lr.traced)-staged) / float64(lr.traced)
	m.put("bench.stage_sum_gap_pct", "%", gap)
	m.put("bench.tracing_overhead_s", "s", (lr.traced - lr.untraced).Seconds())
	m.put("bench.traced_wall_s", "s", lr.traced.Seconds())
	if gap < 0 || gap > stageSumTolerancePct {
		return fmt.Errorf("stage-sum check: layer spans leave %.2f%% of the traced pass's %v unaccounted (tolerance %.1f%%)",
			gap, lr.traced, stageSumTolerancePct)
	}
	return nil
}

// finishTraced runs the workload's traced pass and fills rep with the
// per-layer metrics: spans and counters from the pass, runtime counters
// and heap peak from the measurement window.
func finishTraced(cfg *config, ck *checker, rep *report, rt runtimeStats, peak uint64, pass func(*layerDriver) error) error {
	lr, err := layerPasses(cfg, ck, pass)
	if err != nil {
		return err
	}
	rep.merge(lr.d.tally)
	m := rep.Metrics
	if err := lr.put(m, cfg.workers); err != nil {
		rep.fail(err)
	}
	m.put("runtime.gc_cycles", "count", float64(rt.gcCycles))
	m.put("runtime.gc_pause_s", "s", rt.gcPause.Seconds())
	m.put("runtime.heap_peak_bytes", "B", float64(peak))
	rep.spans = lr.spans
	rep.samples["spans"] = len(lr.spans)
	return nil
}
