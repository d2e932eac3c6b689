package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/trace"
)

// testTrace caches one generated workload trace per test binary.
var (
	testTraceOnce sync.Once
	testTraceVal  *trace.Trace
	testTraceErr  error
)

func workloadTrace(t *testing.T) *trace.Trace {
	t.Helper()
	testTraceOnce.Do(func() {
		w, err := eval.Lookup("late_sender")
		if err != nil {
			testTraceErr = err
			return
		}
		testTraceVal, testTraceErr = w.Generate()
	})
	if testTraceErr != nil {
		t.Fatalf("generating workload: %v", testTraceErr)
	}
	return testTraceVal
}

// encodeTrace renders tr in the requested container version.
func encodeTrace(t *testing.T, tr *trace.Trace, version int) []byte {
	t.Helper()
	var buf bytes.Buffer
	var err error
	if version == 2 {
		err = trace.EncodeV2(&buf, tr)
	} else {
		err = trace.Encode(&buf, tr)
	}
	if err != nil {
		t.Fatalf("encoding v%d trace: %v", version, err)
	}
	return buf.Bytes()
}

// cliReduce produces the bytes the tracereduce CLI would write for the
// same trace and parameters — the parity reference for served output.
func cliReduce(t *testing.T, upload []byte, method string, threshold float64, format int) []byte {
	t.Helper()
	dec, err := trace.NewDecoder(bytes.NewReader(upload))
	if err != nil {
		t.Fatalf("NewDecoder: %v", err)
	}
	defer dec.Close()
	m, err := core.NewMethod(method, threshold)
	if err != nil {
		t.Fatalf("NewMethod: %v", err)
	}
	var out bytes.Buffer
	if _, err := core.ReduceStreamToWriterOpts(dec, m, &out, format, core.StreamOptions{}); err != nil {
		t.Fatalf("ReduceStreamToWriterOpts: %v", err)
	}
	return out.Bytes()
}

func postReduce(t *testing.T, url string, body []byte, query string) *http.Response {
	t.Helper()
	resp, err := http.Post(url+"/v1/reduce?"+query, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/reduce: %v", err)
	}
	return resp
}

func readBody(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading response: %v", err)
	}
	return b
}

// TestReduceParity pins the acceptance criterion: served bytes are
// identical to the CLI pipeline's output over a grid sample — both
// upload container versions × methods × output formats — including on
// cache hits. Every cell also sends the retired match parameter, which
// the service ignores like any unknown parameter: each value yields the
// exact scan's bytes.
func TestReduceParity(t *testing.T) {
	tr := workloadTrace(t)
	srv := NewServer(Config{DegradeAt: 2}) // never degrade in the parity grid
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	type cell struct {
		method string
		match  string
		format int
	}
	grid := []cell{
		{"avgWave", "exact", 1},
		{"avgWave", "exact", 2},
		{"euclidean", "auto", 2},
		{"iter_k", "exact", 1},
		{"relDiff", "lsh", 2},
	}
	for _, uploadVersion := range []int{1, 2} {
		upload := encodeTrace(t, tr, uploadVersion)
		for _, c := range grid {
			name := fmt.Sprintf("up_v%d/%s/%s/v%d", uploadVersion, c.method, c.match, c.format)
			t.Run(name, func(t *testing.T) {
				threshold := core.DefaultThresholds[c.method]
				want := cliReduce(t, upload, c.method, threshold, c.format)
				q := fmt.Sprintf("method=%s&match=%s&format=v%d", c.method, c.match, c.format)
				resp := postReduce(t, ts.URL, upload, q)
				got := readBody(t, resp)
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("status %d: %s", resp.StatusCode, got)
				}
				if !bytes.Equal(want, got) {
					t.Fatalf("served bytes differ from CLI output (%d vs %d bytes)", len(got), len(want))
				}
				// Second request must hit the cache with identical bytes.
				resp2 := postReduce(t, ts.URL, upload, q)
				got2 := readBody(t, resp2)
				if resp2.Header.Get("X-Tracered-Cache") != "hit" {
					t.Errorf("second request missed the cache")
				}
				if !bytes.Equal(want, got2) {
					t.Fatalf("cached bytes differ from CLI output")
				}
			})
		}
	}
}

// TestCacheCrossFormatUploads pins the signature property end to end:
// the v1 and v2 encodings of one trace share a cache entry.
func TestCacheCrossFormatUploads(t *testing.T) {
	tr := workloadTrace(t)
	srv := NewServer(Config{DegradeAt: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	respV1 := postReduce(t, ts.URL, encodeTrace(t, tr, 1), "method=avgWave")
	bodyV1 := readBody(t, respV1)
	if respV1.StatusCode != http.StatusOK {
		t.Fatalf("v1 upload: status %d", respV1.StatusCode)
	}
	respV2 := postReduce(t, ts.URL, encodeTrace(t, tr, 2), "method=avgWave")
	bodyV2 := readBody(t, respV2)
	if respV2.StatusCode != http.StatusOK {
		t.Fatalf("v2 upload: status %d", respV2.StatusCode)
	}
	if respV1.Header.Get("X-Tracered-Signature") != respV2.Header.Get("X-Tracered-Signature") {
		t.Fatalf("signatures differ across upload encodings")
	}
	if respV2.Header.Get("X-Tracered-Cache") != "hit" {
		t.Errorf("v2 re-upload of the same trace missed the cache")
	}
	if !bytes.Equal(bodyV1, bodyV2) {
		t.Fatalf("cached reply differs across upload encodings")
	}
	if got := srv.Metrics().CacheHits.Value(); got != 1 {
		t.Errorf("cache hits = %d, want 1", got)
	}
}

// TestAdmissionBackpressure saturates the session pool directly and
// asserts 429 + Retry-After, then shows the slot freeing re-admits.
func TestAdmissionBackpressure(t *testing.T) {
	tr := workloadTrace(t)
	upload := encodeTrace(t, tr, 1)
	srv := NewServer(Config{MaxSessions: 1, DegradeAt: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Occupy the only session slot so the outcome is deterministic.
	srv.sessions <- struct{}{}
	resp := postReduce(t, ts.URL, upload, "method=avgWave")
	readBody(t, resp)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	<-srv.sessions
	resp = postReduce(t, ts.URL, upload, "method=avgWave")
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-release status = %d: %s", resp.StatusCode, body)
	}
	if srv.Metrics().SessionsRejected.Value() != 1 {
		t.Errorf("rejected counter = %d, want 1", srv.Metrics().SessionsRejected.Value())
	}
}

// TestConcurrentUploadStress fires more concurrent sessions than the
// pool admits: every response must be a clean 200 or 429 (never a hang,
// never corruption), 200 bodies must be byte-identical, and the
// counters must account for every request.
func TestConcurrentUploadStress(t *testing.T) {
	tr := workloadTrace(t)
	upload := encodeTrace(t, tr, 2)
	srv := NewServer(Config{MaxSessions: 2, FleetWorkers: 4, DegradeAt: 2, CacheBytes: -1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	want := cliReduce(t, upload, "avgWave", core.DefaultThresholds["avgWave"], 2)

	const N = 16
	type outcome struct {
		status int
		body   []byte
	}
	results := make([]outcome, N)
	var wg sync.WaitGroup
	for i := 0; i < N; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/reduce?method=avgWave&format=v2",
				"application/octet-stream", bytes.NewReader(upload))
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			defer resp.Body.Close()
			b, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Errorf("request %d read: %v", i, err)
				return
			}
			results[i] = outcome{resp.StatusCode, b}
		}(i)
	}
	wg.Wait()

	var ok, rejected int
	for i, res := range results {
		switch res.status {
		case http.StatusOK:
			ok++
			if !bytes.Equal(res.body, want) {
				t.Errorf("request %d: 200 body differs from CLI output", i)
			}
		case http.StatusTooManyRequests:
			rejected++
		default:
			t.Errorf("request %d: unexpected status %d: %s", i, res.status, res.body)
		}
	}
	if ok == 0 {
		t.Error("no request succeeded")
	}
	m := srv.Metrics()
	if got := m.SessionsTotal.Value() + m.SessionsRejected.Value(); got != N {
		t.Errorf("admitted %d + rejected %d != %d requests", m.SessionsTotal.Value(), m.SessionsRejected.Value(), N)
	}
	if int(m.SessionsRejected.Value()) != rejected {
		t.Errorf("rejected counter %d, saw %d 429s", m.SessionsRejected.Value(), rejected)
	}
	t.Logf("stress: %d ok, %d rejected", ok, rejected)
}

// TestDegradedUnderLoad pins the degradation contract: at or above the
// DegradeAt load fraction a session is served with the next-coarser
// threshold, reports it in headers, and the bytes still match the CLI
// for that effective threshold.
func TestDegradedUnderLoad(t *testing.T) {
	tr := workloadTrace(t)
	upload := encodeTrace(t, tr, 1)
	// MaxSessions 1 + DegradeAt 0.5: every admitted session sees
	// inflight 1 >= 0.5, so degradation is deterministic.
	srv := NewServer(Config{MaxSessions: 1, DegradeAt: 0.5})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp := postReduce(t, ts.URL, upload, "method=avgWave&format=v2")
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	deg := resp.Header.Get("X-Tracered-Degraded")
	if deg != "threshold" {
		t.Fatalf("X-Tracered-Degraded = %q, want threshold", deg)
	}
	def := core.DefaultThresholds["avgWave"]
	var coarser float64
	for _, v := range core.ThresholdSweep("avgWave") {
		if v > def {
			coarser = v
			break
		}
	}
	if got := resp.Header.Get("X-Tracered-Threshold"); got != fmt.Sprintf("%g", coarser) {
		t.Errorf("X-Tracered-Threshold = %s, want %g", got, coarser)
	}
	want := cliReduce(t, upload, "avgWave", coarser, 2)
	if !bytes.Equal(body, want) {
		t.Fatalf("degraded bytes differ from CLI at the degraded parameters")
	}
	if srv.Metrics().SessionsDegraded.Value() != 1 {
		t.Errorf("degraded counter = %d, want 1", srv.Metrics().SessionsDegraded.Value())
	}
}

// TestAnalyze reduces a trace and fetches its diagnosis by signature.
func TestAnalyze(t *testing.T) {
	tr := workloadTrace(t)
	upload := encodeTrace(t, tr, 2)
	srv := NewServer(Config{DegradeAt: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp := postReduce(t, ts.URL, upload, "method=avgWave&format=v2")
	readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reduce status %d", resp.StatusCode)
	}
	sig := resp.Header.Get("X-Tracered-Signature")

	aresp, err := http.Get(ts.URL + "/v1/analyze?sig=" + sig + "&method=avgWave&format=v2")
	if err != nil {
		t.Fatalf("GET /v1/analyze: %v", err)
	}
	abody := readBody(t, aresp)
	if aresp.StatusCode != http.StatusOK {
		t.Fatalf("analyze status %d: %s", aresp.StatusCode, abody)
	}
	var diag struct {
		Name     string `json:"name"`
		NumRanks int    `json:"num_ranks"`
		Cells    []struct {
			Metric   string    `json:"metric"`
			Location string    `json:"location"`
			Sev      []float64 `json:"sev"`
		} `json:"cells"`
		Stats struct {
			StoredSegments int `json:"stored_segments"`
		} `json:"stats"`
	}
	if err := json.Unmarshal(abody, &diag); err != nil {
		t.Fatalf("decoding analyze response: %v", err)
	}
	if diag.Name != tr.Name || diag.NumRanks != tr.NumRanks() {
		t.Errorf("diagnosis header = %q/%d, want %q/%d", diag.Name, diag.NumRanks, tr.Name, tr.NumRanks())
	}
	if len(diag.Cells) == 0 {
		t.Error("late_sender diagnosis has no severity cells")
	}
	if diag.Stats.StoredSegments == 0 {
		t.Error("analyze stats lost the stored-segment count")
	}

	// Unknown signature and junk signatures fail cleanly.
	aresp, _ = http.Get(ts.URL + "/v1/analyze?sig=" + strings.Repeat("00", 32) + "&method=avgWave")
	readBody(t, aresp)
	if aresp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown signature status = %d, want 404", aresp.StatusCode)
	}
	aresp, _ = http.Get(ts.URL + "/v1/analyze?sig=nope")
	readBody(t, aresp)
	if aresp.StatusCode != http.StatusBadRequest {
		t.Errorf("junk signature status = %d, want 400", aresp.StatusCode)
	}
}

// TestAnalyzeUnpairedTrace uploads a trace that reduces but cannot be
// diagnosed: both ranks call MPI_Gather with root 99. The reduce
// succeeds; the analyze answers 422 with a reason and counts an error.
func TestAnalyzeUnpairedTrace(t *testing.T) {
	tr := trace.New("bad_root", 2)
	for r := range tr.Ranks {
		tr.Ranks[r].Events = []trace.Event{
			{Name: "main.1", Kind: trace.KindMarkBegin, Enter: 0, Exit: 0, Peer: trace.NoPeer, Root: trace.NoPeer},
			{Name: "MPI_Gather", Kind: trace.KindGather, Enter: 0, Exit: 10, Peer: trace.NoPeer, Root: 99},
			{Name: "main.1", Kind: trace.KindMarkEnd, Enter: 10, Exit: 10, Peer: trace.NoPeer, Root: trace.NoPeer},
		}
	}
	srv := NewServer(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp := postReduce(t, ts.URL, encodeTrace(t, tr, 2), "method=avgWave&format=v2")
	readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reduce status %d, want 200", resp.StatusCode)
	}
	before := srv.metrics.ErrorsTotal.Value()
	aresp, err := http.Get(ts.URL + "/v1/analyze?sig=" + resp.Header.Get("X-Tracered-Signature") + "&method=avgWave&format=v2")
	if err != nil {
		t.Fatalf("GET /v1/analyze: %v", err)
	}
	body := readBody(t, aresp)
	if aresp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("analyze status %d, want 422: %s", aresp.StatusCode, body)
	}
	if !strings.Contains(string(body), "root 99") {
		t.Errorf("analyze body %q does not name the bad root", body)
	}
	if got := srv.metrics.ErrorsTotal.Value(); got != before+1 {
		t.Errorf("errors counter went %d -> %d, want one more", before, got)
	}
}

// TestUploadLimits pins the per-tenant decode caps and body budget.
func TestUploadLimits(t *testing.T) {
	tr := workloadTrace(t)
	upload := encodeTrace(t, tr, 1)
	srv := NewServer(Config{
		DegradeAt: 2,
		Limits:    trace.DecodeLimits{MaxRanks: 2},
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp := postReduce(t, ts.URL, upload, "method=avgWave")
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("over-cap upload status = %d (%s), want 400", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "rank count") {
		t.Errorf("error %q does not mention the rank cap", body)
	}

	small := NewServer(Config{DegradeAt: 2, MaxUploadBytes: 16})
	ts2 := httptest.NewServer(small.Handler())
	defer ts2.Close()
	resp = postReduce(t, ts2.URL, upload, "method=avgWave")
	readBody(t, resp)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body status = %d, want 413", resp.StatusCode)
	}

	// A chunked upload declares no length, so the spool grows under the
	// budget and the overrun is caught while reading.
	req, err := http.NewRequest(http.MethodPost, ts2.URL+"/v1/reduce?method=avgWave",
		io.MultiReader(bytes.NewReader(upload)))
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("chunked POST: %v", err)
	}
	readBody(t, resp)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized chunked body status = %d, want 413", resp.StatusCode)
	}

	// A declared length over the budget is refused before the body is
	// read at all.
	req = httptest.NewRequest(http.MethodPost, "/v1/reduce?method=avgWave", unreadable{t})
	req.ContentLength = 17
	rec := httptest.NewRecorder()
	small.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("over-budget Content-Length status = %d, want 413", rec.Code)
	}

	// A body that ends before its declared length is the client's fault.
	req = httptest.NewRequest(http.MethodPost, "/v1/reduce?method=avgWave", bytes.NewReader(upload))
	req.ContentLength = int64(len(upload)) + 100
	rec = httptest.NewRecorder()
	NewServer(Config{DegradeAt: 2}).Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("short body status = %d, want 400", rec.Code)
	}
}

// unreadable is a request body that fails the test if it is read.
type unreadable struct{ t *testing.T }

func (u unreadable) Read([]byte) (int, error) {
	u.t.Error("request body was read")
	return 0, io.EOF
}

// TestCacheChargesHeldBytes pins the cache's budget to the memory it
// holds: after several misses, the backing arrays of the cached bodies
// add up to exactly what the cache reports as used, and hold nothing
// beyond the reduced bytes themselves.
func TestCacheChargesHeldBytes(t *testing.T) {
	upload := encodeTrace(t, workloadTrace(t), 2)
	srv := NewServer(Config{DegradeAt: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for _, q := range []string{"method=avgWave", "method=avgWave&format=v2", "method=euclidean", "method=relDiff&format=v2"} {
		resp := postReduce(t, ts.URL, upload, q)
		body := readBody(t, resp)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", q, resp.StatusCode, body)
		}
	}
	var held, served int64
	for el := srv.cache.order.Front(); el != nil; el = el.Next() {
		body := el.Value.(*cacheItem[CacheKey, *CacheEntry]).val.Body
		held += int64(cap(body))
		served += int64(len(body))
	}
	if n := srv.cache.Len(); n != 4 {
		t.Fatalf("cache holds %d entries, want 4", n)
	}
	if used := srv.cache.Used(); held != used || served != used {
		t.Errorf("cache reports %d bytes used but holds %d bytes of backing arrays for %d bytes of bodies",
			used, held, served)
	}
}

// TestBadRequests covers parameter validation.
func TestBadRequests(t *testing.T) {
	srv := NewServer(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	// Each query goes with a valid upload, so only the query can be at
	// fault. sample_n is a library method, not one the service offers.
	upload := encodeTrace(t, workloadTrace(t), 1)
	for _, q := range []string{"method=nope", "threshold=x", "format=v3", "method=sample_n&threshold=4"} {
		resp := postReduce(t, ts.URL, upload, q)
		readBody(t, resp)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", q, resp.StatusCode)
		}
	}
	for name, body := range map[string][]byte{
		"junk upload":           []byte("not a trace at all"),
		"bytes after the trace": append(slices.Clip(upload), "junk"...),
	} {
		resp := postReduce(t, ts.URL, body, "method=avgWave")
		readBody(t, resp)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
	// Non-finite and negative thresholds. A NaN cache key never equals
	// itself: had such a request been served, its entry could never be
	// hit or evicted.
	for _, q := range []string{"threshold=NaN", "threshold=Inf", "threshold=%2BInf", "threshold=-1"} {
		resp := postReduce(t, ts.URL, upload, "method=avgWave&"+q)
		readBody(t, resp)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("reduce %s: status %d, want 400", q, resp.StatusCode)
		}
		resp, err := http.Get(ts.URL + "/v1/analyze?sig=" + strings.Repeat("00", 32) + "&method=avgWave&" + q)
		if err != nil {
			t.Fatal(err)
		}
		readBody(t, resp)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("analyze %s: status %d, want 400", q, resp.StatusCode)
		}
	}
	if n := srv.cache.Len(); n != 0 {
		t.Errorf("cache holds %d entries after rejected requests, want 0", n)
	}
}

// TestHealthMetricsDrain covers the observability surface and the
// drain flip.
func TestHealthMetricsDrain(t *testing.T) {
	tr := workloadTrace(t)
	upload := encodeTrace(t, tr, 1)
	srv := NewServer(Config{DegradeAt: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}

	r2 := postReduce(t, ts.URL, upload, "method=avgWave")
	readBody(t, r2)

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics := string(readBody(t, resp))
	for _, want := range []string{
		"tracered_sessions_total 1",
		"tracered_cache_misses_total 1",
		"tracered_bytes_in_total",
		"tracered_reduce_seconds_bucket{le=\"+Inf\"} 1",
		"tracered_fleet_busy_workers 0",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}

	srv.Drain()
	resp, _ = http.Get(ts.URL + "/healthz")
	readBody(t, resp)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining healthz = %d, want 503", resp.StatusCode)
	}
	r3 := postReduce(t, ts.URL, upload, "method=avgWave")
	readBody(t, r3)
	if r3.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining reduce = %d, want 503", r3.StatusCode)
	}
}
