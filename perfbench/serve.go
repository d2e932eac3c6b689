package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/serve"
	"repro/tracered"
)

// serve_mixed runs an in-process tracereduced with its default Config
// and drives it with an open loop: seeded Poisson arrivals at a fixed
// rate, each request timed from when it was due, so a stall also charges
// every request queued behind it.
const (
	// serveRate is the offered load in requests per second. Two
	// closed-loop clients sustained about 415 req/s on a 2-CPU machine at
	// a higher hit share, so this rate stays below saturation.
	serveRate = 30.0
	// serveMaxConns caps the client's connections below the default
	// DegradeAt × MaxSessions (6 sessions in flight), so every reply is
	// served at full fidelity and has a committed digest.
	serveMaxConns = 4
	// serveMinAge is how long before its due time a key must have been
	// first requested to be a repeat or analyze target, so its reduction
	// is cached by then.
	serveMinAge = time.Second
	// serveWindow is the number of consecutive requests each latency
	// quantile is taken over before the median over windows.
	serveWindow = 100
	// serveRankUnit is the rank count of one unit of popularity.
	serveRankUnit = 8
	// serveSLO is the latency limit of one request.
	serveSLO = 100 * time.Millisecond
)

// serveKey is one cacheable reduction: catalog trace × method × reply
// container version.
type serveKey struct {
	trace  int
	method string
	format tracered.Format
}

func serveKeys(traces int) []serveKey {
	var keys []serveKey
	for t := range traces {
		for _, method := range tracered.MethodNames {
			for _, f := range []tracered.Format{tracered.FormatV1, tracered.FormatV2} {
				keys = append(keys, serveKey{t, method, f})
			}
		}
	}
	return keys
}

// request is one scheduled arrival.
type request struct {
	due     time.Duration // offset from the start of the run
	key     int
	analyze bool
	first   bool            // introduces its key: a cache miss
	upload  tracered.Format // container version an upload is sent in
}

// Request kinds of the schedule.
const (
	kindNew     = iota // an upload introducing a key: a cache miss
	kindRepeat         // an upload of a key already reduced: a cache hit
	kindAnalyze        // an analyze call on a key already reduced
)

// kindRound is the mix of request kinds: every round of five arrivals
// holds two misses, two hits, and one analyze call, in a seeded order.
var kindRound = []int{kindNew, kindNew, kindRepeat, kindRepeat, kindAnalyze}

// schedule draws the run's arrivals: Poisson at serveRate for seconds.
// The mix is balanced, so every seed offers the same load. Traces come in
// seeded rounds in which trace t appears weights[t] times, and request
// kinds in seeded rounds of kindRound. A new key is the next of the
// trace's keysPerTrace method × reply format pairs in a seeded order; a
// repeat or analyze call picks among the trace's keys first requested at
// least serveMinAge earlier, the j-th most recent with weight 1/j. A kind
// with no eligible key falls back to the other upload kind.
func schedule(r *rng, seconds float64, weights []int, keysPerTrace int) []request {
	type traceState struct {
		order  []int // the trace's keys, in the order they are introduced
		firsts []int // requests that introduced a key, in due order
		aged   int   // firsts[:aged] were due at least serveMinAge ago
	}
	ts := make([]traceState, len(weights))
	var round []int
	for t, w := range weights {
		for range w {
			round = append(round, t)
		}
	}
	for t := range ts {
		ts[t].order = r.perm(keysPerTrace)
		for i := range ts[t].order {
			ts[t].order[i] += t * keysPerTrace
		}
	}
	// Poisson arrivals conditioned on their count: n arrivals at the
	// partial sums of n+1 exponential gaps, scaled to the window, so
	// every seed offers exactly serveRate × seconds requests.
	n := int(serveRate * seconds)
	gaps := make([]float64, n+1)
	var total float64
	for i := range gaps {
		gaps[i] = r.exp()
		total += gaps[i]
	}
	var reqs []request
	var traceSeq, kindSeq []int
	at := 0.0
	for _, gap := range gaps[:n] {
		at += gap * seconds / total
		if len(traceSeq) == 0 {
			for _, i := range r.perm(len(round)) {
				traceSeq = append(traceSeq, round[i])
			}
		}
		if len(kindSeq) == 0 {
			for _, i := range r.perm(len(kindRound)) {
				kindSeq = append(kindSeq, kindRound[i])
			}
		}
		s := &ts[traceSeq[0]]
		kind := kindSeq[0]
		traceSeq, kindSeq = traceSeq[1:], kindSeq[1:]
		due := time.Duration(at * float64(time.Second))
		for s.aged < len(s.firsts) && reqs[s.firsts[s.aged]].due <= due-serveMinAge {
			s.aged++
		}
		switch {
		case kind != kindNew && s.aged == 0:
			kind = kindNew
		case kind == kindNew && len(s.firsts) == len(s.order):
			kind = kindRepeat
		}
		req := request{due: due}
		switch {
		case kind == kindNew && len(s.firsts) < len(s.order):
			req.key, req.first = s.order[len(s.firsts)], true
			s.firsts = append(s.firsts, len(reqs))
		case kind != kindNew && s.aged > 0:
			req.key, req.analyze = recent(r, reqs, s.firsts[:s.aged]), kind == kindAnalyze
		default:
			continue // the trace has no key of either kind to offer
		}
		if !req.analyze {
			req.upload = tracered.FormatV1 + tracered.Format(r.intn(2))
		}
		reqs = append(reqs, req)
	}
	return reqs
}

// recent picks the key of one of the given first requests, the j-th most
// recent with probability proportional to 1/j.
func recent(r *rng, reqs []request, firsts []int) int {
	var h float64
	for j := 1; j <= len(firsts); j++ {
		h += 1 / float64(j)
	}
	x := r.float() * h
	for j := 1; j <= len(firsts); j++ {
		if x -= 1 / float64(j); x < 0 {
			return reqs[firsts[len(firsts)-j]].key
		}
	}
	return reqs[firsts[0]].key
}

// outcome is one request's result as the client saw it.
type outcome struct {
	send, done time.Duration // offsets from the start of the run
	cache      string        // X-Tracered-Cache of an upload's reply
	body       []byte        // analyze replies only
	err        error
}

// serveLoop is one open-loop run against the service.
type serveLoop struct {
	outs          []outcome
	late          []time.Duration    // dispatch time minus due time, per request
	before, after map[string]float64 // /metrics scrapes around the run
	elapsed       time.Duration      // from the start to the last reply
	// completion holds the untimed requests for the keys the schedule
	// left out, by key.
	completion map[int]error
	// first and degree hold each key's first reply, checked against its
	// digest, and the degree of matching the service reported for it.
	first  [][]byte
	degree []float64
}

func runServe(cfg *config) (*report, error) {
	ins, setup, err := setUp(cfg.setupRuns, func() ([]*catalogInput, error) {
		return buildCatalog(cfg.catalog, catalogVariant(cfg.seed), tracered.FormatV1, tracered.FormatV2)
	})
	if err != nil {
		return nil, err
	}
	ck, err := newChecker(cfg)
	if err != nil {
		return nil, err
	}
	keys := serveKeys(len(ins))
	// A trace's popularity is its rank count in units of the smallest
	// runs, so the typical request reduces a 32-rank trace and the median
	// latency does not sit at the gap between small and large traces.
	weights := make([]int, len(ins))
	for t, in := range ins {
		weights[t] = max(1, in.trace.NumRanks()/serveRankUnit)
	}
	reqs := schedule(newRNG(cfg.seed, streamServe), cfg.seconds, weights, len(keys)/len(ins))
	var l *serveLoop
	rt, peak, err := measured(cfg.traced, func() (err error) {
		l, err = openLoop(cfg, ck, ins, keys, reqs)
		return err
	})
	if err != nil {
		return nil, err
	}
	off := &offline{ins: ins, keys: keys, first: l.first, reds: map[int]*tracered.Reduced{}, diags: map[int]*tracered.Diagnosis{}}
	o := &ops{slo: serveSLO}
	var uploaded, reduced int64
	for i, out := range l.outs {
		r := reqs[i]
		err := out.err
		if r.analyze {
			if err == nil {
				err = off.checkAnalyze(r.key, out.body)
			}
		} else {
			n := int64(ins[keys[r.key].trace].events)
			uploaded += n
			if r.first && err == nil {
				reduced += n
			}
		}
		o.record(out.done-r.due, err)
		if (i+1)%serveWindow == 0 {
			o.endWindow()
		}
	}
	for key, err := range l.completion {
		o.add(err)
		uploaded += int64(ins[keys[key].trace].events)
	}
	rep := newReport(l.elapsed)
	rep.samples["requests"] = len(reqs)
	rep.samples["completion_requests"] = len(l.completion)
	if cfg.traced {
		rep.merge(o.tally)
		if err := finishTraced(cfg, ck, rep, rt, peak, serveLayers(ins, keys, reqs)); err != nil {
			return nil, err
		}
		putServeLayers(rep.Metrics, reqs, l)
		return rep, nil
	}
	q := off.quality(o, l.degree)
	rep.merge(o.tally)
	m := rep.Metrics
	m.put("setup_s", "s", setup)
	m.put("events_per_s", "events/s", float64(reduced)/l.elapsed.Seconds())
	m.put("alloc_bytes_per_event", "B", float64(rt.allocBytes)/float64(uploaded))
	q.put(m)
	o.put(m)
	return rep, nil
}

// openLoop serves the schedule from a fresh in-process service and
// returns every request's outcome.
func openLoop(cfg *config, ck *checker, ins []*catalogInput, keys []serveKey, reqs []request) (*serveLoop, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening: %w", err)
	}
	hs := &http.Server{Handler: serve.NewServer(serve.Config{}).Handler()}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		hs.Shutdown(ctx) // every client has returned: nothing is in flight
		<-served
	}()
	base := "http://" + ln.Addr().String()
	clients := make([]*http.Client, min(cfg.workers, serveMaxConns))
	for i := range clients {
		tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
		defer tr.CloseIdleConnections()
		clients[i] = &http.Client{Transport: tr}
		// Open the connection before the clock starts.
		if _, err := fetch(clients[i], base+"/healthz"); err != nil {
			return nil, err
		}
	}
	l := &serveLoop{
		outs:   make([]outcome, len(reqs)),
		late:   make([]time.Duration, len(reqs)),
		first:  make([][]byte, len(keys)),
		degree: make([]float64, len(keys)),
	}
	if l.before, err = scrape(clients[0], base); err != nil {
		return nil, err
	}
	// A key's first upload closes done[key] once sig[key] and first[key]
	// hold its result; analyze calls for the key wait on it.
	done := make([]chan struct{}, len(keys))
	for i := range done {
		done[i] = make(chan struct{})
	}
	sig := make([]string, len(keys))
	queue := make(chan int, len(reqs)) // sized to the number of sends: dispatch never blocks
	start := time.Now()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(queue)
		for i, r := range reqs {
			time.Sleep(time.Until(start.Add(r.due)))
			l.late[i] = time.Since(start) - r.due
			queue <- i
		}
	}()
	for _, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				r := reqs[i]
				k := keys[r.key]
				if r.analyze {
					<-done[r.key]
					l.outs[i] = analyzeRequest(c, base, start, k, sig[r.key])
					continue
				}
				in := ins[k.trace]
				out, body, s, degree := reduceRequest(c, base, start, k, in.trc[r.upload])
				if out.err == nil {
					out.err = ck.verify(catalogKey(in, k.method, k.format), body)
				}
				l.outs[i] = out
				if r.first {
					if out.err == nil {
						sig[r.key], l.first[r.key], l.degree[r.key] = s, body, degree
					}
					close(done[r.key])
				}
			}
		}()
	}
	wg.Wait()
	l.elapsed = time.Since(start)
	if l.after, err = scrape(clients[0], base); err != nil {
		return nil, err
	}
	// Request every key the schedule left out, untimed, so the quality
	// figures cover the whole key set whatever the seed requested.
	l.completion = map[int]error{}
	for key, body := range l.first {
		if body != nil {
			continue
		}
		k := keys[key]
		in := ins[k.trace]
		out, body, _, degree := reduceRequest(clients[0], base, start, k, in.trc[tracered.FormatV2])
		if out.err == nil {
			out.err = ck.verify(catalogKey(in, k.method, k.format), body)
		}
		if out.err == nil {
			l.first[key], l.degree[key] = body, degree
		}
		l.completion[key] = out.err
	}
	return l, nil
}

// reduceRequest uploads src for key k. It returns the outcome, the reply
// body, and the upload's signature and degree of matching from the reply
// headers.
func reduceRequest(c *http.Client, base string, start time.Time, k serveKey, src []byte) (outcome, []byte, string, float64) {
	url := fmt.Sprintf("%s/v1/reduce?method=%s&format=%v", base, k.method, k.format)
	o := outcome{send: time.Since(start)}
	resp, err := c.Post(url, "application/octet-stream", bytes.NewReader(src))
	if err != nil {
		o.done, o.err = time.Since(start), err
		return o, nil, "", 0
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	o.done = time.Since(start)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(body))
	}
	var degree float64
	if err == nil {
		degree, err = strconv.ParseFloat(resp.Header.Get("X-Tracered-Degree"), 64)
	}
	if err != nil {
		o.err = fmt.Errorf("POST %s: %w", url, err)
		return o, nil, "", 0
	}
	o.cache = resp.Header.Get("X-Tracered-Cache")
	return o, body, resp.Header.Get("X-Tracered-Signature"), degree
}

// analyzeRequest asks for the diagnosis of key k's cached reduction.
func analyzeRequest(c *http.Client, base string, start time.Time, k serveKey, sig string) outcome {
	o := outcome{send: time.Since(start)}
	if sig == "" {
		o.done, o.err = o.send, fmt.Errorf("analyze of %s/%v: its upload failed", k.method, k.format)
		return o
	}
	o.body, o.err = fetch(c, fmt.Sprintf("%s/v1/analyze?sig=%s&method=%s&format=%v", base, sig, k.method, k.format))
	o.done = time.Since(start)
	return o
}

// fetch GETs url and returns the body of a 200 reply.
func fetch(c *http.Client, url string) ([]byte, error) {
	resp, err := c.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("GET %s: %w", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s: %s", url, resp.Status, bytes.TrimSpace(body))
	}
	return body, nil
}

// scrape reads the service's /metrics counters and gauges.
func scrape(c *http.Client, base string) (map[string]float64, error) {
	body, err := fetch(c, base+"/metrics")
	if err != nil {
		return nil, err
	}
	vals := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		name, val, ok := strings.Cut(line, " ")
		if !ok || strings.HasPrefix(line, "#") {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			vals[name] = v
		}
	}
	return vals, nil
}

// offline holds the offline counterparts serve_mixed's replies are
// checked and scored against: each key's first reply, which already
// matched its committed digest, decoded once.
type offline struct {
	ins   []*catalogInput
	keys  []serveKey
	first [][]byte
	reds  map[int]*tracered.Reduced
	diags map[int]*tracered.Diagnosis
}

func (f *offline) reduced(key int) (*tracered.Reduced, error) {
	if red, ok := f.reds[key]; ok {
		return red, nil
	}
	k := f.keys[key]
	if f.first[key] == nil {
		return nil, fmt.Errorf("%s/%s/%v: no checked reply", f.ins[k.trace].name, k.method, k.format)
	}
	red, err := tracered.ReadReduced(bytes.NewReader(f.first[key]))
	if err != nil {
		return nil, fmt.Errorf("reading back %s/%s/%v: %w", f.ins[k.trace].name, k.method, k.format, err)
	}
	f.reds[key] = red
	return red, nil
}

// analyzeReply is the part of a /v1/analyze reply checked against the
// offline diagnosis.
type analyzeReply struct {
	Name     string `json:"name"`
	NumRanks int    `json:"num_ranks"`
	Cells    []struct {
		Metric   string    `json:"metric"`
		Location string    `json:"location"`
		Total    float64   `json:"total"`
		Sev      []float64 `json:"sev"`
	} `json:"cells"`
}

// checkAnalyze holds an /v1/analyze reply to AnalyzeReduced of its key's
// checked output.
func (f *offline) checkAnalyze(key int, body []byte) error {
	want, ok := f.diags[key]
	if !ok {
		red, err := f.reduced(key)
		if err != nil {
			return err
		}
		if want, err = tracered.AnalyzeReduced(red); err != nil {
			return err
		}
		f.diags[key] = want
	}
	var got analyzeReply
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("analyze reply for %s: %w", want.Name, err)
	}
	cells := want.Keys()
	if got.Name != want.Name || got.NumRanks != want.NumRanks || len(got.Cells) != len(cells) {
		return fmt.Errorf("analyze reply for %s differs from the offline diagnosis", want.Name)
	}
	for i, k := range cells {
		c := got.Cells[i]
		if c.Metric != k.Metric || c.Location != k.Location || c.Total != want.Total(k) || !slices.Equal(c.Sev, want.Sev[k]) {
			return fmt.Errorf("analyze reply for %s differs from the offline diagnosis at %s", want.Name, k)
		}
	}
	return nil
}

// quality scores every key's checked output against its full trace.
// Reduced bytes are compared with the upload in the reply's container
// version.
func (f *offline) quality(o *ops, degree []float64) quality {
	var q quality
	fullDiag := map[int]*tracered.Diagnosis{}
	for key, body := range f.first {
		if body == nil {
			continue
		}
		k := f.keys[key]
		in := f.ins[k.trace]
		red, err := f.reduced(key)
		if err != nil {
			o.fail(err)
			continue
		}
		diag, ok := fullDiag[k.trace]
		if !ok {
			if diag, err = tracered.Analyze(in.trace); err != nil {
				o.fail(err)
				continue
			}
			fullDiag[k.trace] = diag
		}
		res, err := tracered.ScoreReduced(in.trace, diag, red)
		if err != nil {
			o.fail(err)
			continue
		}
		q.add(len(in.trc[k.format]), len(body), degree[key], res)
	}
	return q
}

// putServeLayers reports the serve layer measured from outside the
// service; workloads without a service report zeros.
func putServeLayers(m metricSet, reqs []request, l *serveLoop) {
	var miss, hit, analyze, wait, late []float64
	delta := func(string) float64 { return 0 }
	if l != nil {
		for i, out := range l.outs {
			r := reqs[i]
			lat := ms(out.done - r.due)
			switch {
			case r.analyze:
				analyze = append(analyze, lat)
			case out.cache == "hit":
				hit = append(hit, lat)
			case out.cache == "miss":
				miss = append(miss, lat)
			}
			wait = append(wait, ms(out.send-r.due))
			late = append(late, ms(l.late[i]))
		}
		delta = func(name string) float64 { return l.after[name] - l.before[name] }
	}
	m.put("serve.latency_p50_ms.miss", "ms", median(miss))
	m.put("serve.latency_p50_ms.hit", "ms", median(hit))
	m.put("serve.latency_p50_ms.analyze", "ms", median(analyze))
	m.put("serve.queue_wait_p50_ms", "ms", median(wait))
	hits, misses := delta("tracered_cache_hits_total"), delta("tracered_cache_misses_total")
	m.put("serve.cache.hit_ratio", "ratio", hits/(hits+misses))
	m.put("serve.sessions_rejected", "count", delta("tracered_sessions_rejected_total"))
	m.put("serve.sessions_degraded", "count", delta("tracered_sessions_degraded_total"))
	m.put("serve.bytes_in", "B", delta("tracered_bytes_in_total"))
	m.put("serve.bytes_out", "B", delta("tracered_bytes_out_total"))
	m.put("serve.generator_late_p99_ms", "ms", quantile(late, 0.99))
}

// serveLayers is serve_mixed's traced pass: the schedule's requests in
// order, each doing what the service does for it — a signature for every
// upload, decode → split → match → encode for a key's first upload, and
// a read-back plus AnalyzeReduced for an analyze call.
func serveLayers(ins []*catalogInput, keys []serveKey, reqs []request) func(*layerDriver) error {
	return func(d *layerDriver) error {
		outputs := make([][]byte, len(keys))
		for _, r := range reqs {
			k := keys[r.key]
			in := ins[k.trace]
			d.op(func() error {
				if r.analyze {
					if outputs[r.key] == nil {
						return errors.New("analyze before the key's upload")
					}
					red, err := d.readBack(outputs[r.key])
					if err != nil {
						return err
					}
					_, err = d.analyzeReduced(red)
					return err
				}
				src := in.trc[r.upload]
				if err := d.signature(src); err != nil {
					return err
				}
				if outputs[r.key] != nil {
					return nil // a cache hit: the signature is all the service computes
				}
				out, err := d.reduce(src, k.method, tracered.MatchModeExact, k.format)
				if err == nil {
					err = d.check(catalogKey(in, k.method, k.format), out)
				}
				outputs[r.key] = out
				return err
			})
		}
		return nil
	}
}
