package serve

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/trace"
)

// reduceWith sends upload to the handler's /v1/reduce under ctx and
// returns the recorded reply. length is the declared Content-Length; -1
// sends the body as if chunked. The query goes in unparsed, so any
// string is a valid one.
func reduceWith(ctx context.Context, h http.Handler, upload []byte, length int64, query string) *httptest.ResponseRecorder {
	// A MultiReader hides the bytes.Reader, so the request keeps the
	// length given here instead of taking the body's.
	req := httptest.NewRequestWithContext(ctx, http.MethodPost, "/v1/reduce", io.MultiReader(bytes.NewReader(upload)))
	req.URL.RawQuery = query
	req.ContentLength = length
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// reduce sends upload with its length declared.
func reduce(h http.Handler, upload []byte, query string) *httptest.ResponseRecorder {
	return reduceWith(context.Background(), h, upload, int64(len(upload)), query)
}

// signatureOf is the content signature of upload, as a client would
// compute it.
func signatureOf(t *testing.T, upload []byte) string {
	t.Helper()
	sig, err := trace.SignatureOfWith(bytes.NewReader(upload), trace.DecoderOptions{})
	if err != nil {
		t.Fatalf("SignatureOf: %v", err)
	}
	return sig.String()
}

// TestSignatureMemoRepeatUploads pins what a memo hit serves. A repeat
// of late_sender and of a 32-rank catalog trace, each as TRC1 and TRC2,
// with the same method, a new method, and without a declared length,
// skips the signing decode, and still answers with the signature of the
// bytes, the CLI's output and a cold server's reply.
func TestSignatureMemoRepeatUploads(t *testing.T) {
	nton, err := eval.Lookup("NtoN_1024")
	if err != nil {
		t.Fatal(err)
	}
	big, err := nton.Generate()
	if err != nil {
		t.Fatal(err)
	}
	if big.NumRanks() != 32 {
		t.Fatalf("NtoN_1024 has %d ranks, want 32", big.NumRanks())
	}
	srv := NewServer(Config{DegradeAt: 2})
	h := srv.Handler()
	hits := &srv.Metrics().SignatureMemoHits
	uploads := 0
	for _, tr := range []*trace.Trace{workloadTrace(t), big} {
		for _, version := range []int{1, 2} {
			upload := encodeTrace(t, tr, version)
			uploads++
			wantSig := signatureOf(t, upload)
			before := hits.Value()
			first := reduce(h, upload, "method=avgWave")
			if first.Code != http.StatusOK {
				t.Fatalf("%s TRC%d: first upload status %d: %s", tr.Name, version, first.Code, first.Body)
			}
			if hits.Value() != before {
				t.Fatalf("%s TRC%d: a first upload counted a memo hit", tr.Name, version)
			}
			for _, c := range []struct {
				query  string
				length int64
				method string
				format int
			}{
				{"method=avgWave", int64(len(upload)), "avgWave", 1},
				{"method=euclidean&format=v2", int64(len(upload)), "euclidean", 2},
				{"method=avgWave", -1, "avgWave", 1},
			} {
				name := fmt.Sprintf("%s TRC%d %s (length %d)", tr.Name, version, c.query, c.length)
				before := hits.Value()
				rec := reduceWith(context.Background(), h, upload, c.length, c.query)
				if rec.Code != http.StatusOK {
					t.Fatalf("%s: status %d: %s", name, rec.Code, rec.Body)
				}
				if got := hits.Value() - before; got != 1 {
					t.Errorf("%s: memo hits moved by %d, want 1", name, got)
				}
				if got := rec.Header().Get("X-Tracered-Signature"); got != wantSig {
					t.Errorf("%s: signature %s, want %s", name, got, wantSig)
				}
				want := cliReduce(t, upload, c.method, core.DefaultThresholds[c.method], c.format)
				if !bytes.Equal(rec.Body.Bytes(), want) {
					t.Errorf("%s: reply differs from the CLI's output", name)
				}
				cold := reduceWith(context.Background(), NewServer(Config{DegradeAt: 2}).Handler(), upload, c.length, c.query)
				if !bytes.Equal(rec.Body.Bytes(), cold.Body.Bytes()) ||
					rec.Header().Get("X-Tracered-Signature") != cold.Header().Get("X-Tracered-Signature") {
					t.Errorf("%s: reply differs from a cold server's", name)
				}
			}
		}
	}
	if got, want := srv.memo.Len(), uploads; got != want {
		t.Errorf("memo holds %d uploads, want %d", got, want)
	}
	var metrics bytes.Buffer
	srv.Metrics().WriteTo(&metrics)
	if want := fmt.Sprintf("tracered_signature_memo_hits_total %d\n", 3*uploads); !strings.Contains(metrics.String(), want) {
		t.Errorf("/metrics lacks %q", want)
	}
}

// TestSignatureMemoForgetsRejectedUploads pins that the memo holds only
// uploads that were signed: an upload over the decode limits, a
// truncated container and a body shorter than its declared length are
// rejected on every repeat with the same status and text, and leave the
// memo empty.
func TestSignatureMemoForgetsRejectedUploads(t *testing.T) {
	tr := workloadTrace(t)
	v1, v2 := encodeTrace(t, tr, 1), encodeTrace(t, tr, 2)
	cases := []struct {
		name   string
		cfg    Config
		upload []byte
		length int64
		text   string
	}{
		{"over the rank cap", Config{DegradeAt: 2, Limits: trace.DecodeLimits{MaxRanks: 2}}, v1, int64(len(v1)), "rank count"},
		{"truncated TRC1", Config{DegradeAt: 2}, v1[:len(v1)/2], int64(len(v1) / 2), "unexpected EOF"},
		{"truncated TRC2", Config{DegradeAt: 2}, v2[:len(v2)/2], int64(len(v2) / 2), "trailing magic"},
		{"shorter than declared", Config{DegradeAt: 2}, v1, int64(len(v1)) + 100, "reading upload"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			srv := NewServer(c.cfg)
			h := srv.Handler()
			var first *httptest.ResponseRecorder
			for i := range 3 {
				rec := reduceWith(context.Background(), h, c.upload, c.length, "method=avgWave")
				if rec.Code != http.StatusBadRequest {
					t.Fatalf("upload %d: status %d (%s), want 400", i, rec.Code, rec.Body)
				}
				if !strings.Contains(rec.Body.String(), c.text) {
					t.Errorf("upload %d: %q does not mention %q", i, rec.Body, c.text)
				}
				if first == nil {
					first = rec
				} else if rec.Body.String() != first.Body.String() {
					t.Errorf("upload %d: %q, first was %q", i, rec.Body, first.Body)
				}
			}
			if n := srv.memo.Len(); n != 0 {
				t.Errorf("memo holds %d uploads after rejections, want 0", n)
			}
			if n := srv.Metrics().SignatureMemoHits.Value(); n != 0 {
				t.Errorf("memo hits = %d, want 0", n)
			}
		})
	}
}

// TestSignatureMemoByteChange flips one byte of a memoized upload at
// several places: each altered upload is signed afresh, so it is either
// rejected or answered with its own bytes' signature, never served from
// the memo.
func TestSignatureMemoByteChange(t *testing.T) {
	upload := encodeTrace(t, workloadTrace(t), 1)
	srv := NewServer(Config{DegradeAt: 2})
	h := srv.Handler()
	if rec := reduce(h, upload, "method=avgWave"); rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	hits := &srv.Metrics().SignatureMemoHits
	for _, at := range []int{0, 5, len(upload) / 3, len(upload) / 2, len(upload) - 1} {
		altered := bytes.Clone(upload)
		altered[at] ^= 0x01
		want, signErr := trace.SignatureOfWith(bytes.NewReader(altered), trace.DecoderOptions{})
		held := srv.memo.Len()
		rec := reduce(h, altered, "method=avgWave")
		if hits.Value() != 0 {
			t.Fatalf("byte %d: the altered upload was a memo hit", at)
		}
		switch {
		case signErr != nil:
			if rec.Code != http.StatusBadRequest {
				t.Errorf("byte %d: status %d, want 400 (%v)", at, rec.Code, signErr)
			}
			if srv.memo.Len() != held {
				t.Errorf("byte %d: a rejected upload was remembered", at)
			}
		case rec.Code == http.StatusOK:
			if got := rec.Header().Get("X-Tracered-Signature"); got != want.String() {
				t.Errorf("byte %d: signature %s, want %s", at, got, want)
			}
			if srv.memo.Len() != held+1 {
				t.Errorf("byte %d: the signed upload was not remembered", at)
			}
		case rec.Code != http.StatusBadRequest:
			// Signed, but the reduction itself may reject the trace.
			t.Errorf("byte %d: status %d: %s", at, rec.Code, rec.Body)
		}
	}
}

// TestSigMemoEvictsLeastRecentlyUsed pins the memo's bound and its
// eviction order.
func TestSigMemoEvictsLeastRecentlyUsed(t *testing.T) {
	d := func(i int) digest { return digest{byte(i), byte(i >> 8)} }
	sig := func(i int) trace.Signature { return trace.Signature{0xff, byte(i), byte(i >> 8)} }
	m := NewCache[digest](3, func(trace.Signature) int64 { return 1 }, nil, nil)
	for i := 1; i <= 3; i++ {
		m.Put(d(i), sig(i))
	}
	if _, ok := m.Get(d(1)); !ok { // 1 is now the most recent
		t.Fatal("entry 1 missing")
	}
	m.Put(d(4), sig(4)) // evicts 2
	if _, ok := m.Get(d(2)); ok {
		t.Error("entry 2, the least recently used, survived")
	}
	m.Put(d(3), sig(3)) // a repeat put refreshes 3
	m.Put(d(5), sig(5)) // evicts 1
	if _, ok := m.Get(d(1)); ok {
		t.Error("entry 1 survived after 3 was refreshed")
	}
	for _, i := range []int{3, 4, 5} {
		if got, ok := m.Get(d(i)); !ok || got != sig(i) {
			t.Errorf("entry %d: %v %v, want %v", i, got, ok, sig(i))
		}
	}
	for i := 6; i < 600; i++ {
		m.Put(d(i), sig(i))
		if n := m.Len(); n > 3 {
			t.Fatalf("memo holds %d entries, capacity 3", n)
		}
	}
	if srv := NewServer(Config{}); srv.memo.budget != sigMemoEntries {
		t.Errorf("server memo capacity %d, want %d", srv.memo.budget, sigMemoEntries)
	}
}

// TestSignatureMemoFollowsCacheSwitch pins that with the cache off no
// upload is digested or remembered.
func TestSignatureMemoFollowsCacheSwitch(t *testing.T) {
	upload := encodeTrace(t, workloadTrace(t), 2)
	srv := NewServer(Config{DegradeAt: 2, CacheBytes: -1})
	h := srv.Handler()
	for i := range 3 {
		if rec := reduce(h, upload, "method=avgWave"); rec.Code != http.StatusOK {
			t.Fatalf("upload %d: status %d: %s", i, rec.Code, rec.Body)
		}
	}
	if n := srv.memo.Len(); n != 0 {
		t.Errorf("a server without a cache remembers %d uploads", n)
	}
	var metrics bytes.Buffer
	srv.Metrics().WriteTo(&metrics)
	if !strings.Contains(metrics.String(), "tracered_signature_memo_hits_total 0\n") {
		t.Error("memo hits moved with the cache off")
	}
}

// TestSignatureMemoConcurrentUploads fires identical uploads at once:
// every reply is a clean 200 or 429 with the CLI's bytes and the
// upload's signature, and the memo ends up holding the upload once.
func TestSignatureMemoConcurrentUploads(t *testing.T) {
	upload := encodeTrace(t, workloadTrace(t), 2)
	srv := NewServer(Config{MaxSessions: 4, FleetWorkers: 2, DegradeAt: 2})
	h := srv.Handler()
	wantSig := signatureOf(t, upload)
	want := map[string][]byte{}
	for _, m := range []string{"avgWave", "relDiff"} {
		want[m] = cliReduce(t, upload, m, core.DefaultThresholds[m], 2)
	}
	const n = 12
	recs := make([]*httptest.ResponseRecorder, n)
	var wg sync.WaitGroup
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			method := []string{"avgWave", "relDiff"}[i%2]
			recs[i] = reduce(h, upload, "format=v2&method="+method)
		}()
	}
	wg.Wait()
	ok := 0
	for i, rec := range recs {
		switch rec.Code {
		case http.StatusOK:
			ok++
			method := []string{"avgWave", "relDiff"}[i%2]
			if !bytes.Equal(rec.Body.Bytes(), want[method]) {
				t.Errorf("request %d: reply differs from the CLI's output", i)
			}
			if got := rec.Header().Get("X-Tracered-Signature"); got != wantSig {
				t.Errorf("request %d: signature %s, want %s", i, got, wantSig)
			}
		case http.StatusTooManyRequests:
		default:
			t.Errorf("request %d: status %d: %s", i, rec.Code, rec.Body)
		}
	}
	if ok == 0 {
		t.Error("no request succeeded")
	}
	if got := srv.memo.Len(); got != 1 {
		t.Errorf("memo holds %d uploads, want 1", got)
	}
}

// TestCancelWhileAcquiringWorkers pins the status of a client that goes
// away while its session waits for a fleet slot: 499, like every other
// cancellation, not the 503 reserved for draining. The upload is a memo
// hit, so no signing decode sees the cancellation before Acquire does.
func TestCancelWhileAcquiringWorkers(t *testing.T) {
	upload := encodeTrace(t, workloadTrace(t), 1)
	srv := NewServer(Config{DegradeAt: 2, FleetWorkers: 2})
	h := srv.Handler()
	if rec := reduce(h, upload, "method=avgWave"); rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	held, err := srv.fleet.Acquire(context.Background(), srv.fleet.Size())
	if err != nil || held != srv.fleet.Size() {
		t.Fatalf("holding the fleet: got %d slots, %v", held, err)
	}
	defer srv.fleet.Release(held)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	errs := srv.Metrics().ErrorsTotal.Value()
	rec := reduceWith(ctx, h, upload, int64(len(upload)), "method=euclidean")
	if rec.Code != 499 {
		t.Errorf("status %d (%s), want 499", rec.Code, rec.Body)
	}
	if got := srv.Metrics().SignatureMemoHits.Value(); got != 1 {
		t.Errorf("memo hits = %d, want 1", got)
	}
	if got := srv.Metrics().ErrorsTotal.Value(); got != errs+1 {
		t.Errorf("errors counter went %d -> %d, want one more", errs, got)
	}
	if got := srv.Metrics().FleetBusy.Value(); got != int64(held) {
		t.Errorf("fleet busy = %d, want the %d held slots", got, held)
	}
}

// cancelOnDrain is a request body that cancels its request's context
// once its last byte has been read.
type cancelOnDrain struct {
	r      *bytes.Reader
	cancel context.CancelFunc
}

func (c cancelOnDrain) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	if c.r.Len() == 0 {
		c.cancel()
	}
	return n, err
}

// TestCancelWhileSigning pins the 499 of a client that goes away after
// its upload was read, while the server signs it; the upload is not
// remembered.
func TestCancelWhileSigning(t *testing.T) {
	upload := encodeTrace(t, workloadTrace(t), 1)
	srv := NewServer(Config{DegradeAt: 2})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req := httptest.NewRequestWithContext(ctx, http.MethodPost, "/v1/reduce?method=avgWave",
		cancelOnDrain{bytes.NewReader(upload), cancel})
	req.ContentLength = int64(len(upload))
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	if rec.Code != 499 {
		t.Errorf("status %d (%s), want 499", rec.Code, rec.Body)
	}
	if n := srv.memo.Len(); n != 0 {
		t.Errorf("memo holds %d uploads after a cancelled signing, want 0", n)
	}
	if got := srv.Metrics().ErrorsTotal.Value(); got != 1 {
		t.Errorf("errors counter = %d, want 1", got)
	}
}
