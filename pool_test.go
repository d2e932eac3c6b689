// Pooled working sets. A catalog cell draws its rank event buffers,
// encoded chunks and analyzer scratch from process-wide pools
// (internal/bufpool). The gate below bounds what a warm cell still
// allocates per input event, and the concurrent-sessions test checks
// that storage passed between sessions through the pools never changes
// an output.
package repro

import (
	"bytes"
	"io"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/tracered"
)

// raceEnabled reports a build with the race detector (race_test.go).
var raceEnabled bool

// warmCell runs one catalog_study cell: a pipelined TRC2 → TRR2 reduce
// at 2 workers, the TRR2 read-back, and ScoreReduced with the trace's
// cached diagnosis.
func warmCell(trc []byte, full *tracered.Trace, diag *tracered.Diagnosis, method string) error {
	m, err := tracered.DefaultMethod(method)
	if err != nil {
		return err
	}
	dec, err := tracered.NewTraceDecoderWith(bytes.NewReader(trc), tracered.DecoderOptions{Workers: 2})
	if err != nil {
		return err
	}
	defer dec.Close()
	var out bytes.Buffer
	st, err := tracered.ReduceStreamToWriterOpts(dec, m, &out, tracered.FormatV2, tracered.StreamOptions{Workers: 2})
	if err != nil {
		return err
	}
	red, err := tracered.ReadReducedWith(bytes.NewReader(out.Bytes()), tracered.DecoderOptions{Workers: 2})
	if err != nil {
		return err
	}
	red.TotalSegments, red.Matches, red.PossibleMatches = st.TotalSegments, st.Matches, st.PossibleMatches
	_, err = tracered.ScoreReduced(full, diag, red)
	return err
}

// TestWarmCellAllocBound is the allocation gate of a study cell: after
// a warm-up pass, nine warm cells (one per method) over a catalog trace
// allocate at most bound bytes per input event. Each cell's transient
// working set comes from the pools, the pipeline's per-rank reduction
// included, so what remains is mostly output the caller keeps: the
// reduced container and its read-back. sync.Pool caches per P, so the
// figure grows with GOMAXPROCS (on amd64, Go 1.24, 2 CPUs, sweep3d_32p
// read 9 B/event at 1, 10–11 at 2, 12–16 at 4, 17–30 at 8 and 19–24 at
// 16); the gate pins GOMAXPROCS at 2, the benchmark's 2 workers on 2
// vCPUs, where sweep3d_32p reads 10–11 and NtoN_1024 8. It read 24–27
// and 17 while the pipeline allocated each rank's matcher, execution
// log and representatives afresh, and 63 and 34 without the pools. The
// race detector drops pooled buffers at random, so the gate is skipped
// there.
func TestWarmCellAllocBound(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	for _, tc := range []struct {
		workload string
		bound    float64 // bytes per input event
	}{
		{"sweep3d_32p", 16},
		{"NtoN_1024", 12},
	} {
		full := parityTrace(t, tc.workload)
		var trc bytes.Buffer
		if err := tracered.WriteTraceFormat(&trc, full, tracered.FormatV2); err != nil {
			t.Fatal(err)
		}
		diag, err := tracered.Analyze(full)
		if err != nil {
			t.Fatal(err)
		}
		pass := func() {
			for _, method := range tracered.MethodNames {
				if err := warmCell(trc.Bytes(), full, diag, method); err != nil {
					t.Fatalf("%s/%s: %v", tc.workload, method, err)
				}
			}
		}
		pass()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		pass()
		runtime.ReadMemStats(&after)
		events := full.NumEvents() * len(tracered.MethodNames)
		perEvent := float64(after.TotalAlloc-before.TotalAlloc) / float64(events)
		t.Logf("%s: %.1f B/event over %d cells (bound %.0f)", tc.workload, perEvent, len(tracered.MethodNames), tc.bound)
		if perEvent > tc.bound {
			t.Errorf("%s: a warm cell allocates %.1f B per input event, want at most %.0f", tc.workload, perEvent, tc.bound)
		}
	}
}

// TestConcurrentSessionsSharePools runs four sessions at once, each
// pipeline-reducing, signing and analyzing a different catalog trace
// with every rank recycled, so the pools pass storage from one session
// to another. Every reduced container must match its committed digest,
// every signature its committed signature, and every diagnosis the one
// computed before the sessions started. Run it under -race.
func TestConcurrentSessionsSharePools(t *testing.T) {
	digests := readExactDigests(t)
	sigs := readGoldenSignatures(t)
	type session struct {
		name    string
		trc     []byte
		diag    *tracered.Diagnosis
		redDiag map[string]*tracered.Diagnosis // by method
	}
	var sessions []*session
	for _, name := range []string{"late_sender", "NtoN_1024", "sweep3d_8p", "halo_jitter"} {
		full := parityTrace(t, name)
		s := &session{name: name, redDiag: map[string]*tracered.Diagnosis{}}
		var trc bytes.Buffer
		if err := tracered.WriteTraceFormat(&trc, full, tracered.FormatV2); err != nil {
			t.Fatal(err)
		}
		s.trc = trc.Bytes()
		var err error
		if s.diag, err = tracered.Analyze(full); err != nil {
			t.Fatal(err)
		}
		for _, method := range tracered.MethodNames {
			m, err := tracered.DefaultMethod(method)
			if err != nil {
				t.Fatal(err)
			}
			red, err := tracered.ReduceSequential(full, m)
			if err != nil {
				t.Fatal(err)
			}
			if s.redDiag[method], err = tracered.AnalyzeReduced(red); err != nil {
				t.Fatal(err)
			}
		}
		sessions = append(sessions, s)
	}

	run := func(s *session) {
		for _, method := range tracered.MethodNames {
			m, err := tracered.DefaultMethod(method)
			if err != nil {
				t.Error(err)
				return
			}
			dec, err := tracered.NewTraceDecoderWith(bytes.NewReader(s.trc), tracered.DecoderOptions{Workers: 2})
			if err != nil {
				t.Error(err)
				return
			}
			var out bytes.Buffer
			_, err = tracered.ReduceStreamToWriterOpts(dec, m, &out, tracered.FormatV2, tracered.StreamOptions{Workers: 2})
			dec.Close()
			if err != nil {
				t.Errorf("%s/%s: %v", s.name, method, err)
				return
			}
			key := digestKey(s.name, method, tracered.FormatV2)
			if got := hexSHA256(out.Bytes()); got != digests[key] {
				t.Errorf("%s: digest %.12s, committed %.12s", key, got, digests[key])
			}
			red, err := tracered.ReadReducedWith(bytes.NewReader(out.Bytes()), tracered.DecoderOptions{Workers: 2})
			if err != nil {
				t.Errorf("%s: read-back: %v", key, err)
				return
			}
			if d, err := tracered.AnalyzeReduced(red); err != nil || !reflect.DeepEqual(d, s.redDiag[method]) {
				t.Errorf("%s: AnalyzeReduced of the read-back differs from the serial one (err %v)", key, err)
			}

			for path, r := range map[string]io.Reader{
				"parallel":   bytes.NewReader(s.trc),
				"sequential": seqReader{bytes.NewReader(s.trc)},
			} {
				sig, err := tracered.TraceSignatureWith(r, tracered.DecoderOptions{Workers: 2})
				if err != nil || sig.String() != sigs[s.name] {
					t.Errorf("%s %s: signature %s (err %v), committed %s", s.name, path, sig, err, sigs[s.name])
				}
			}
			full, err := tracered.ReadTrace(bytes.NewReader(s.trc))
			if err != nil {
				t.Errorf("%s: %v", s.name, err)
				return
			}
			if d, err := tracered.Analyze(full); err != nil || !reflect.DeepEqual(d, s.diag) {
				t.Errorf("%s: Analyze differs from the serial one (err %v)", s.name, err)
			}
		}
	}
	var wg sync.WaitGroup
	for _, s := range sessions {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run(s)
		}()
	}
	wg.Wait()
}
