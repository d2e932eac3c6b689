package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"io"
	"net/http"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/expert"
	"repro/internal/trace"
)

// Config tunes the service. The zero value serves with the defaults
// noted per field.
type Config struct {
	// MaxSessions bounds concurrently admitted /v1/reduce sessions;
	// above it requests get 429 + Retry-After. Default 8.
	MaxSessions int
	// FleetWorkers is the global worker-slot budget shared by all
	// sessions. Default GOMAXPROCS.
	FleetWorkers int
	// SessionWorkers is how many fleet slots one session asks for (it
	// may be granted fewer under contention, never zero). Default
	// FleetWorkers — a lone session uses the whole machine.
	SessionWorkers int
	// MaxUploadBytes bounds one upload's spooled body — the per-session
	// memory budget. Default 256 MiB.
	MaxUploadBytes int64
	// CacheBytes budgets the representative cache. Default 256 MiB;
	// negative disables caching, and with it the memo of upload
	// signatures.
	CacheBytes int64
	// DegradeAt is the inflight/MaxSessions load fraction at which new
	// sessions are served with the next-coarser threshold. Default
	// 0.75; >= 1 never degrades.
	DegradeAt float64
	// RetryAfter is the Retry-After hint on 429 responses. Default 1s.
	RetryAfter time.Duration
	// Limits are the per-tenant decode caps applied to uploads; the
	// zero value keeps the library defaults.
	Limits trace.DecodeLimits
}

func (c Config) withDefaults() Config {
	if c.MaxSessions <= 0 {
		c.MaxSessions = 8
	}
	if c.FleetWorkers <= 0 {
		c.FleetWorkers = runtime.GOMAXPROCS(0)
	}
	if c.SessionWorkers <= 0 {
		c.SessionWorkers = c.FleetWorkers
	}
	if c.MaxUploadBytes == 0 {
		c.MaxUploadBytes = 256 << 20
	}
	if c.CacheBytes == 0 {
		c.CacheBytes = 256 << 20
	}
	if c.DegradeAt == 0 {
		c.DegradeAt = 0.75
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	return c
}

// Server is the trace-reduction service: construct with NewServer,
// mount Handler on an http.Server, call Drain before shutdown.
type Server struct {
	cfg      Config
	fleet    *Fleet
	cache    *Cache[CacheKey, *CacheEntry]
	memo     *Cache[digest, trace.Signature]
	metrics  *Metrics
	sessions chan struct{}
	draining atomic.Bool
}

// NewServer returns a service with the given configuration.
func NewServer(cfg Config) *Server {
	cfg = cfg.withDefaults()
	m := NewMetrics()
	cacheBytes, memoEntries := cfg.CacheBytes, int64(sigMemoEntries)
	if cacheBytes < 0 {
		cacheBytes, memoEntries = 0, 0
	}
	return &Server{
		cfg:      cfg,
		fleet:    NewFleet(cfg.FleetWorkers, &m.FleetBusy),
		cache:    NewCache[CacheKey](cacheBytes, (*CacheEntry).size, &m.CacheBytes, &m.CacheEntries),
		memo:     NewCache[digest](memoEntries, func(trace.Signature) int64 { return 1 }, nil, nil),
		metrics:  m,
		sessions: make(chan struct{}, cfg.MaxSessions),
	}
}

// Metrics exposes the server's registry (tests and embedders read it).
func (s *Server) Metrics() *Metrics { return s.metrics }

// Drain marks the server as draining: /healthz flips to 503 so load
// balancers stop routing here, and new reduce sessions are refused
// while in-flight ones run to completion (http.Server.Shutdown waits
// for those). Safe to call more than once.
func (s *Server) Drain() { s.draining.Store(true) }

// Handler returns the service's HTTP routes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/reduce", s.handleReduce)
	mux.HandleFunc("GET /v1/analyze", s.handleAnalyze)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	return mux
}

// reduceParams are one session's resolved request parameters.
type reduceParams struct {
	method    string
	threshold float64
	format    int
}

// parseReduceParams resolves and validates the query parameters,
// filling the paper-default threshold when none is given.
func parseReduceParams(r *http.Request) (reduceParams, error) {
	q := r.URL.Query()
	p := reduceParams{method: q.Get("method"), format: 1}
	if p.method == "" {
		p.method = "avgWave"
	}
	def, ok := core.DefaultThresholds[p.method]
	if !ok {
		return p, fmt.Errorf("unknown method %q", p.method)
	}
	p.threshold = def
	if t := q.Get("threshold"); t != "" {
		v, err := strconv.ParseFloat(t, 64)
		if err != nil {
			return p, fmt.Errorf("bad threshold %q", t)
		}
		p.threshold = v
	}
	// The policy constructor is the one threshold check the CLI, the
	// library and the service share. It rejects negative thresholds, and
	// NaN and infinities, whose cache keys would never match.
	if _, err := core.NewMethod(p.method, p.threshold); err != nil {
		return p, err
	}
	switch f := q.Get("format"); f {
	case "", "v1", "1":
		p.format = 1
	case "v2", "2":
		p.format = 2
	default:
		return p, fmt.Errorf("unknown format %q (want v1 or v2)", f)
	}
	return p, nil
}

// degrade coarsens p under load: the threshold steps to the next
// coarser value in the method's sweep. It reports false when the sweep
// has no coarser value (or the method has no sweep).
func degrade(p reduceParams) (reduceParams, bool) {
	for _, t := range core.ThresholdSweep(p.method) {
		if t > p.threshold {
			p.threshold = t
			return p, true
		}
	}
	return p, false
}

// httpError reports a request failure, counting it.
func (s *Server) httpError(w http.ResponseWriter, code int, err error) {
	s.metrics.ErrorsTotal.Inc()
	http.Error(w, err.Error(), code)
}

func (s *Server) handleReduce(w http.ResponseWriter, r *http.Request) {
	begin := time.Now()
	if s.draining.Load() {
		http.Error(w, "server is draining", http.StatusServiceUnavailable)
		return
	}
	// Admission control: a bounded session pool, refused without
	// queueing. Waiting here would hide the overload from the client
	// while uploads pile up in memory; a fast 429 + Retry-After lets
	// well-behaved clients pace themselves instead.
	select {
	case s.sessions <- struct{}{}:
	default:
		s.metrics.SessionsRejected.Inc()
		w.Header().Set("Retry-After", strconv.Itoa(int((s.cfg.RetryAfter+time.Second-1)/time.Second)))
		http.Error(w, "too many concurrent reductions", http.StatusTooManyRequests)
		return
	}
	inflight := s.metrics.InflightSessions.Add(1)
	s.metrics.SessionsTotal.Inc()
	defer func() {
		s.metrics.InflightSessions.Add(-1)
		<-s.sessions
	}()

	params, err := parseReduceParams(r)
	if err != nil {
		s.httpError(w, http.StatusBadRequest, err)
		return
	}
	// Graceful degradation: once the session pool is mostly full, new
	// sessions get a coarser threshold — cheaper to compute and smaller
	// to ship — and the response says so, so clients can re-request at
	// full fidelity later.
	degraded := false
	if float64(inflight) >= s.cfg.DegradeAt*float64(s.cfg.MaxSessions) {
		params, degraded = degrade(params)
		if degraded {
			s.metrics.SessionsDegraded.Inc()
		}
	}

	body, d, err := s.spoolUpload(w, r)
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			s.httpError(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("upload exceeds the %d-byte budget", s.cfg.MaxUploadBytes))
		} else {
			s.httpError(w, http.StatusBadRequest, fmt.Errorf("reading upload: %w", err))
		}
		return
	}
	s.metrics.BytesIn.Add(int64(len(body)))

	// Bytes this server has signed before skip the decode: the memo maps
	// their digest to the signature signing produced. Only a signature
	// that was computed is remembered, so a failed, over-Limits or
	// cancelled upload is signed (and rejected) afresh every time.
	sig, ok := s.memo.Get(d)
	if ok {
		s.metrics.SignatureMemoHits.Inc()
	} else {
		decOpts := trace.DecoderOptions{Ctx: r.Context(), Limits: s.cfg.Limits}
		if sig, err = trace.SignatureOfWith(bytes.NewReader(body), decOpts); err != nil {
			s.failSession(w, r, err)
			return
		}
		s.memo.Put(d, sig)
	}

	key := CacheKey{Sig: sig, Method: params.method, Threshold: params.threshold, Format: params.format}
	if ent, ok := s.cache.Get(key); ok {
		s.metrics.CacheHits.Inc()
		s.writeReduced(w, params, sig, degraded, ent, true, begin)
		return
	}
	s.metrics.CacheMisses.Inc()

	m, err := core.NewMethod(params.method, params.threshold)
	if err != nil {
		s.httpError(w, http.StatusBadRequest, err)
		return
	}
	// Lease a share of the global fleet — the whole fleet when idle,
	// down to one slot under contention — and run the pipelined
	// decode → reduce → encode path with exactly that parallelism.
	granted, err := s.fleet.Acquire(r.Context(), s.cfg.SessionWorkers)
	if err != nil {
		// Acquire fails only when the client has gone away.
		s.failSession(w, r, fmt.Errorf("acquiring workers: %w", err))
		return
	}
	dec, err := trace.NewDecoderWith(bytes.NewReader(body), trace.DecoderOptions{
		Ctx: r.Context(), Limits: s.cfg.Limits,
	})
	if err != nil {
		s.fleet.Release(granted)
		s.failSession(w, r, err)
		return
	}
	var out bytes.Buffer
	var stats *core.StreamStats
	// Label the session's reduce so fleet CPU profiles attribute time per
	// tenant workload and method (tracereduced -cpuprofile); the pipeline
	// workers add their own per-stage labels underneath.
	pprof.Do(r.Context(), pprof.Labels(
		"subsystem", "serve-session",
		"workload", dec.Name(),
		"method", params.method,
	), func(ctx context.Context) {
		stats, err = core.ReduceStreamToWriterOpts(dec, m, &out, params.format,
			core.StreamOptions{Workers: granted, Ctx: ctx})
	})
	dec.Close()
	s.fleet.Release(granted)
	if err != nil {
		s.failSession(w, r, err)
		return
	}
	// Cache an exact-size copy: the pipeline grew out by the container's
	// size, but the allocator rounds its backing array up to a size
	// class, and the cache charges every byte it holds.
	reduced := make([]byte, out.Len())
	copy(reduced, out.Bytes())
	ent := &CacheEntry{Body: reduced, Stats: *stats}
	s.cache.Put(key, ent)
	s.writeReduced(w, params, sig, degraded, ent, false, begin)
}

// spoolUpload reads the whole upload into memory: the signature pass
// (unless the memo knows the bytes) and the reduce pass each decode it,
// and a bytes.Reader gives the v2 decoder its random-access
// block-parallel path. MaxUploadBytes is the per-session memory budget.
// A declared Content-Length sizes the spool in one allocation, and one
// over the budget is refused before any read; a body of unknown length
// (chunked) grows under http.MaxBytesReader instead, so no reservation
// ever exceeds the budget. A body shorter than its declared length is
// an error. Unless the cache, and with it the signature memo, is off,
// the bytes are digested as they arrive, so recognising a repeat upload
// takes no second pass over them.
func (s *Server) spoolUpload(w http.ResponseWriter, r *http.Request) ([]byte, digest, error) {
	var d digest
	limit := s.cfg.MaxUploadBytes
	if r.ContentLength > limit {
		return nil, d, &http.MaxBytesError{Limit: limit}
	}
	var src io.Reader = r.Body
	if r.ContentLength < 0 {
		src = http.MaxBytesReader(w, r.Body, limit)
	}
	var h hash.Hash
	if s.cfg.CacheBytes > 0 {
		h = sha256.New()
		src = io.TeeReader(src, h)
	}
	var buf []byte
	var err error
	if r.ContentLength < 0 {
		buf, err = io.ReadAll(src)
	} else {
		buf = make([]byte, r.ContentLength)
		_, err = io.ReadFull(src, buf)
	}
	if err != nil {
		return nil, d, err
	}
	if h != nil {
		h.Sum(d[:0])
	}
	return buf, d, nil
}

// failSession maps a failure after the upload was read to a status:
// client cancellation gets the nginx-convention 499 (never seen by the
// client, but it keeps the access log honest), anything else is a 400 —
// the upload, not the server, is at fault.
func (s *Server) failSession(w http.ResponseWriter, r *http.Request, err error) {
	if r.Context().Err() != nil {
		s.metrics.ErrorsTotal.Inc()
		w.WriteHeader(499)
		return
	}
	s.httpError(w, http.StatusBadRequest, err)
}

// writeReduced sends the reduced container plus the session's metadata
// headers; cached replies replay the exact bytes and stats of the run
// that populated the entry.
func (s *Server) writeReduced(w http.ResponseWriter, p reduceParams, sig trace.Signature,
	degraded bool, ent *CacheEntry, hit bool, begin time.Time) {
	h := w.Header()
	h.Set("Content-Type", "application/octet-stream")
	h.Set("Content-Length", strconv.Itoa(len(ent.Body)))
	h.Set("X-Tracered-Signature", sig.String())
	h.Set("X-Tracered-Method", p.method)
	h.Set("X-Tracered-Threshold", strconv.FormatFloat(p.threshold, 'g', -1, 64))
	h.Set("X-Tracered-Format", "v"+strconv.Itoa(p.format))
	h.Set("X-Tracered-Stored-Segments", strconv.Itoa(ent.Stats.StoredSegments))
	h.Set("X-Tracered-Degree", strconv.FormatFloat(ent.Stats.DegreeOfMatching(), 'g', -1, 64))
	if hit {
		h.Set("X-Tracered-Cache", "hit")
	} else {
		h.Set("X-Tracered-Cache", "miss")
	}
	if degraded {
		h.Set("X-Tracered-Degraded", "threshold")
	}
	n, _ := w.Write(ent.Body)
	s.metrics.BytesOut.Add(int64(n))
	s.metrics.ReduceSeconds.Observe(time.Since(begin).Seconds())
}

// analyzeResponse is the JSON shape of /v1/analyze: the EXPERT-style
// diagnosis of a cached reduction, flattened for transport (Diagnosis
// keys severity by a struct, which JSON maps cannot express).
type analyzeResponse struct {
	Name     string        `json:"name"`
	Method   string        `json:"method"`
	NumRanks int           `json:"num_ranks"`
	WallTime float64       `json:"wall_time"`
	Cells    []analyzeCell `json:"cells"`
	Stats    analyzeStats  `json:"stats"`
}

type analyzeCell struct {
	Metric   string    `json:"metric"`
	Location string    `json:"location"`
	Total    float64   `json:"total"`
	Sev      []float64 `json:"sev"`
}

type analyzeStats struct {
	StoredSegments int     `json:"stored_segments"`
	TotalSegments  int     `json:"total_segments"`
	Degree         float64 `json:"degree_of_matching"`
	Bytes          int64   `json:"reduced_bytes"`
}

// handleAnalyze serves the diagnosis of a previously reduced trace,
// addressed by the signature (and parameters) the reduce response
// reported. Reductions age out of the cache; a miss is a 404 and the
// client re-reduces. A trace the analyzer rejects is a 422.
func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	sig, err := trace.ParseSignature(q.Get("sig"))
	if err != nil {
		s.httpError(w, http.StatusBadRequest, err)
		return
	}
	params, err := parseReduceParams(r)
	if err != nil {
		s.httpError(w, http.StatusBadRequest, err)
		return
	}
	key := CacheKey{Sig: sig, Method: params.method, Threshold: params.threshold, Format: params.format}
	ent, ok := s.cache.Get(key)
	if !ok {
		s.httpError(w, http.StatusNotFound, errors.New("no cached reduction for that signature and parameters"))
		return
	}
	red, err := core.DecodeReducedWith(bytes.NewReader(ent.Body), trace.DecoderOptions{Ctx: r.Context(), Limits: s.cfg.Limits})
	if err != nil {
		s.httpError(w, http.StatusInternalServerError, fmt.Errorf("decoding cached reduction: %w", err))
		return
	}
	diag, err := expert.AnalyzeReduced(red)
	if err != nil {
		// The reduction decoded, so the client's trace itself does not
		// pair up (say, a rooted collective naming no rank).
		s.httpError(w, http.StatusUnprocessableEntity, fmt.Errorf("analyzing: %w", err))
		return
	}
	resp := analyzeResponse{
		Name:     diag.Name,
		Method:   params.method,
		NumRanks: diag.NumRanks,
		WallTime: diag.WallTime,
		Cells:    []analyzeCell{},
		Stats: analyzeStats{
			StoredSegments: ent.Stats.StoredSegments,
			TotalSegments:  ent.Stats.TotalSegments,
			Degree:         ent.Stats.DegreeOfMatching(),
			Bytes:          int64(len(ent.Body)),
		},
	}
	for _, k := range diag.Keys() {
		resp.Cells = append(resp.Cells, analyzeCell{
			Metric:   k.Metric,
			Location: k.Location,
			Total:    diag.Total(k),
			Sev:      diag.Sev[k],
		})
	}
	s.metrics.AnalyzeTotal.Inc()
	w.Header().Set("Content-Type", "application/json")
	buf, _ := json.Marshal(resp)
	n, _ := w.Write(append(buf, '\n'))
	s.metrics.BytesOut.Add(int64(n))
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.metrics.WriteTo(w)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	io.WriteString(w, "ok\n")
}
