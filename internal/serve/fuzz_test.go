package serve

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/eval"
	"repro/internal/trace"
)

// FuzzReduceHandler drives /v1/reduce with a fuzzed query string and
// body on a server with tight decode limits and a small upload budget.
// Each input goes to a fresh server twice: no reply is a 5xx, and the
// second reply, a repeat the signature memo may serve, carries the
// first's status, signature and body. Every session returns its fleet
// slots. After a 200, /v1/analyze for the returned signature and the
// same query answers 200 or 422.
func FuzzReduceHandler(f *testing.F) {
	w, err := eval.Lookup("late_sender")
	if err != nil {
		f.Fatal(err)
	}
	tr, err := w.Generate()
	if err != nil {
		f.Fatal(err)
	}
	var v1, v2 bytes.Buffer
	if err := trace.Encode(&v1, tr); err != nil {
		f.Fatal(err)
	}
	if err := trace.EncodeV2(&v2, tr); err != nil {
		f.Fatal(err)
	}
	// The tightest limits late_sender passes.
	limits := trace.DecodeLimits{MaxRanks: uint32(tr.NumRanks()), MaxStringLen: uint32(len(tr.Name))}
	names := map[string]bool{}
	for _, r := range tr.Ranks {
		for _, e := range r.Events {
			names[e.Name] = true
			limits.MaxStringLen = max(limits.MaxStringLen, uint32(len(e.Name)))
		}
	}
	limits.MaxNames = uint32(len(names))
	cfg := Config{DegradeAt: 2, Limits: limits, MaxUploadBytes: int64(v1.Len())}
	for _, upload := range [][]byte{v1.Bytes(), v2.Bytes()} {
		if rec := reduce(NewServer(cfg).Handler(), upload, ""); rec.Code != http.StatusOK {
			f.Fatalf("the fuzzed server rejects late_sender: status %d: %s", rec.Code, rec.Body)
		}
	}

	f.Add("method=avgWave", v1.Bytes())
	f.Add("method=euclidean&format=v2", v2.Bytes())
	f.Add("method=iter_k&threshold=0.5", v1.Bytes()[:v1.Len()/2])
	f.Add("format=v1", []byte("TRC2 and then no trace at all"))
	f.Fuzz(func(t *testing.T, query string, body []byte) {
		srv := NewServer(cfg)
		h := srv.Handler()
		first := reduce(h, body, query)
		second := reduce(h, body, query)
		if busy, inflight := srv.Metrics().FleetBusy.Value(), srv.Metrics().InflightSessions.Value(); busy != 0 || inflight != 0 {
			t.Fatalf("after the replies %d fleet slots and %d sessions are still held", busy, inflight)
		}
		for i, rec := range []*httptest.ResponseRecorder{first, second} {
			if rec.Code >= 500 {
				t.Fatalf("reply %d: status %d: %s", i+1, rec.Code, rec.Body)
			}
		}
		sig := first.Header().Get("X-Tracered-Signature")
		if second.Code != first.Code || second.Header().Get("X-Tracered-Signature") != sig ||
			!bytes.Equal(second.Body.Bytes(), first.Body.Bytes()) {
			t.Fatalf("repeat answered %d %q (%d bytes), first %d %q (%d bytes)",
				second.Code, second.Header().Get("X-Tracered-Signature"), second.Body.Len(),
				first.Code, sig, first.Body.Len())
		}
		if first.Code != http.StatusOK {
			return
		}
		req := httptest.NewRequest(http.MethodGet, "/v1/analyze", nil)
		req.URL.RawQuery = "sig=" + sig + "&" + query
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK && rec.Code != http.StatusUnprocessableEntity {
			t.Fatalf("analyze: status %d: %s", rec.Code, rec.Body)
		}
	})
}
