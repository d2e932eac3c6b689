package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"slices"
	"time"

	"repro/tracered"
)

// Each workload draws its seeded inputs from its own stream.
const (
	streamCatalog uint64 = iota + 1
	streamMatcher
	streamServe
)

// rng is splitmix64. It is defined by its arithmetic alone, so a seed
// names the same inputs under every Go release.
type rng struct{ s uint64 }

func newRNG(seed int64, stream uint64) *rng {
	return &rng{s: uint64(seed) ^ stream*0xd1342543de82ef95}
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// float returns a uniform value in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// exp returns an exponential variate with mean 1.
func (r *rng) exp() float64 { return -math.Log(1 - r.float()) }

// perm returns a uniform random permutation of 0..n-1.
func (r *rng) perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// quantile returns the q-quantile of xs, interpolating between order
// statistics; 0 without samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (s[i+1]-s[i])*(pos-float64(i))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// tally counts operations and keeps the first failures for the log.
type tally struct {
	attempted, failed int
	errs              []string
}

// add counts one operation and its failure, if any.
func (t *tally) add(err error) {
	t.attempted++
	if err != nil {
		t.fail(err)
	}
}

// fail counts a failure without a new operation: output checks made
// after the measurement window report through it.
func (t *tally) fail(err error) {
	t.failed++
	if len(t.errs) < 10 {
		t.errs = append(t.errs, err.Error())
	}
}

// ops tallies a workload's operations. Timed ones go through record; a
// failed timed operation counts as missing the latency limit.
type ops struct {
	tally
	slo    time.Duration
	latMs  []float64
	within int
	// cuts ends each window of latency samples: a pass of an offline
	// workload, serveWindow requests of the open loop.
	cuts []int
}

// endWindow closes the current window of latency samples.
func (o *ops) endWindow() { o.cuts = append(o.cuts, len(o.latMs)) }

// windowed returns the q-quantile within each window, the median over
// windows. Every window holds the same mix of operations, so the figure
// does not sit at a gap between kinds of operation, and a burst of
// interference from outside the program moves one window, not the
// result.
func (o *ops) windowed(q float64) float64 {
	var qs []float64
	start := 0
	for _, end := range o.cuts {
		if end > start {
			qs = append(qs, quantile(o.latMs[start:end], q))
			start = end
		}
	}
	if start < len(o.latMs) {
		qs = append(qs, quantile(o.latMs[start:], q))
	}
	return median(qs)
}

// record counts one operation, its failure if any, and its latency.
func (o *ops) record(d time.Duration, err error) {
	o.add(err)
	o.time(d, err == nil)
}

// time records one latency sample; a sample whose work failed counts as
// missing the latency limit.
func (o *ops) time(d time.Duration, ok bool) {
	o.latMs = append(o.latMs, ms(d))
	if ok && d <= o.slo {
		o.within++
	}
}

func (o *ops) put(m metricSet) {
	m.put("ok_pct", "%", 100*float64(o.attempted-o.failed)/float64(o.attempted))
	m.put("latency_p50_ms", "ms", o.windowed(0.5))
	m.put("latency_p99_ms", "ms", o.windowed(0.99))
	m.put("within_slo_pct", "%", 100*float64(o.within)/float64(len(o.latMs)))
}

// quality aggregates the paper's four criteria over a workload's outputs.
type quality struct {
	inBytes, outBytes  int64
	degreeSum, distSum float64
	retained, outputs  int
}

func (q *quality) add(inBytes, outBytes int, degree float64, r *tracered.EvalResult) {
	q.inBytes += int64(inBytes)
	q.outBytes += int64(outBytes)
	q.degreeSum += degree
	q.distSum += float64(r.ApproxDist)
	if r.Retained {
		q.retained++
	}
	q.outputs++
}

func (q *quality) put(m metricSet) {
	n := float64(q.outputs)
	m.put("reduced_pct", "%", 100*float64(q.outBytes)/float64(q.inBytes))
	m.put("degree_of_matching", "ratio", q.degreeSum/n)
	m.put("approx_dist_p90_us", "us", q.distSum/n)
	m.put("trends_retained_pct", "%", 100*float64(q.retained)/n)
}

// setUp builds a workload's inputs runs times and returns the last build
// with the median build time, so work moved into set-up shows in
// setup_s.
func setUp[T any](runs int, build func() (T, error)) (T, float64, error) {
	var v T
	times := make([]float64, 0, runs)
	for range runs {
		begin := time.Now()
		var err error
		if v, err = build(); err != nil {
			return v, 0, err
		}
		times = append(times, time.Since(begin).Seconds())
	}
	// Measure without the discarded builds' garbage.
	runtime.GC()
	return v, median(times), nil
}

// passLoop runs pass back to back until the window is used up, at least
// once, and returns each pass's events per second and the window's
// length. Only whole passes run, so every run does the same mix of work.
func passLoop(seconds float64, pass func() (int64, error)) ([]float64, time.Duration, error) {
	begin := time.Now()
	var rates []float64
	for len(rates) == 0 || time.Since(begin).Seconds() < seconds {
		passBegin := time.Now()
		events, err := pass()
		if err != nil {
			return nil, 0, err
		}
		rates = append(rates, float64(events)/time.Since(passBegin).Seconds())
	}
	return rates, time.Since(begin), nil
}

// runtimeStats is a snapshot of the Go runtime's cumulative counters.
type runtimeStats struct {
	allocBytes uint64
	gcCycles   uint64
	gcPause    time.Duration
}

func readRuntime() runtimeStats {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	var gc debug.GCStats
	debug.ReadGCStats(&gc)
	return runtimeStats{allocBytes: s[0].Value.Uint64(), gcCycles: s[1].Value.Uint64(), gcPause: gc.PauseTotal}
}

func (a runtimeStats) since(b runtimeStats) runtimeStats {
	return runtimeStats{a.allocBytes - b.allocBytes, a.gcCycles - b.gcCycles, a.gcPause - b.gcPause}
}

// measured runs f and returns the runtime counters it moved; traced runs
// also sample the live heap for its peak.
func measured(traced bool, f func() error) (runtimeStats, uint64, error) {
	var h *heapSampler
	if traced {
		h = startHeapSampler()
	}
	before := readRuntime()
	err := f()
	d := readRuntime().since(before)
	var peak uint64
	if h != nil {
		peak = h.stop()
	}
	return d, peak, err
}

// heapSampleEvery is the heap sampler's polling period.
const heapSampleEvery = 5 * time.Millisecond

// heapSampler polls the live heap and keeps the peak.
type heapSampler struct {
	quit, done chan struct{}
	peak       uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(heapSampleEvery)
		defer tick.Stop()
		for {
			metrics.Read(s)
			h.peak = max(h.peak, s[0].Value.Uint64())
			select {
			case <-h.quit:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// stop ends the sampling, waits for the sampler to exit, and returns the
// peak live heap in bytes.
func (h *heapSampler) stop() uint64 {
	close(h.quit)
	<-h.done
	return h.peak
}

// pipelineReduce runs the library's pipelined decode → reduce → encode
// path over one container with the given worker count — the path the
// CLI and the service use.
func pipelineReduce(src []byte, method string, mode tracered.MatchMode, f tracered.Format, workers int) ([]byte, *tracered.ReduceStreamStats, error) {
	m, err := tracered.DefaultMethod(method)
	if err != nil {
		return nil, nil, err
	}
	dec, err := tracered.NewTraceDecoderWith(bytes.NewReader(src), tracered.DecoderOptions{Workers: workers})
	if err != nil {
		return nil, nil, err
	}
	defer dec.Close()
	var out bytes.Buffer
	st, err := tracered.ReduceStreamToWriterOpts(dec, m, &out, f, tracered.StreamOptions{Mode: mode, Workers: workers})
	if err != nil {
		return nil, nil, fmt.Errorf("reducing %s with %s/%v: %w", dec.Name(), method, mode, err)
	}
	return out.Bytes(), st, nil
}

// scoreOutput reads a reduced container back and scores it against the
// full trace. The container keeps representatives and executions, not
// the matching counters, so those come from the run that wrote it.
func scoreOutput(out []byte, st *tracered.ReduceStreamStats, full *tracered.Trace, diag *tracered.Diagnosis, workers int) (*tracered.EvalResult, error) {
	red, err := tracered.ReadReducedWith(bytes.NewReader(out), tracered.DecoderOptions{Workers: workers})
	if err != nil {
		return nil, fmt.Errorf("reading back %s/%s: %w", st.Name, st.Method, err)
	}
	red.TotalSegments, red.Matches, red.PossibleMatches = st.TotalSegments, st.Matches, st.PossibleMatches
	return tracered.ScoreReduced(full, diag, red)
}
