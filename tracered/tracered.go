// Package tracered is the public API of the similarity-based trace
// reduction library: a downstream user's single entry point to generating
// or loading event traces, reducing them with any of the nine similarity
// methods the SC'09 study evaluates, reconstructing approximate traces,
// diagnosing performance problems, and scoring reductions against the
// study's four criteria.
//
// The typical pipeline:
//
//	full, _ := tracered.GenerateWorkload("late_sender")
//	method, _ := tracered.NewMethod("avgWave", 0.2)
//	red, _ := tracered.Reduce(full, method)
//	recon, _ := red.Reconstruct()
//	report, _ := tracered.Score(full, red)
//
// Everything here is a thin re-export of the internal packages; see
// DESIGN.md for the architecture.
package tracered

import (
	"io"

	"repro/internal/core"
	"repro/internal/cube"
	"repro/internal/eval"
	"repro/internal/expert"
	"repro/internal/segment"
	"repro/internal/trace"
)

// Core data model re-exports.
type (
	// Trace is a complete application event trace (one stream per rank).
	Trace = trace.Trace
	// RankTrace is one process's ordered event stream.
	RankTrace = trace.RankTrace
	// Event is a single timestamped program activity.
	Event = trace.Event
	// EventKind classifies events.
	EventKind = trace.EventKind
	// Time is a timestamp/duration in microseconds.
	Time = trace.Time
	// Segment is a marker-delimited slice of one rank's trace. Its Sig
	// is an in-process pattern-class key: it may change between
	// releases and must not be persisted.
	Segment = segment.Segment
	// Method is a segment-similarity policy.
	Method = core.Policy
	// Reduced is a reduced application trace (representatives + execution
	// log).
	Reduced = core.Reduced
	// Diagnosis is an EXPERT-style performance diagnosis.
	Diagnosis = expert.Diagnosis
	// DiagnosisKey addresses one (metric, location) diagnosis cell.
	DiagnosisKey = expert.Key
	// Verdict is the outcome of a trend-retention comparison.
	Verdict = cube.Verdict
	// EvalResult bundles the study's four criteria for one reduction.
	EvalResult = eval.Result
)

// MethodNames lists the nine similarity methods in the paper's order:
// relDiff, absDiff, manhattan, euclidean, chebyshev, iter_k, iter_avg,
// avgWave, haarWave.
var MethodNames = core.MethodNames

// DefaultThresholds maps each method to the best threshold selected by
// the paper's threshold study.
var DefaultThresholds = core.DefaultThresholds

// MatchMode is the type of StreamOptions.Mode. Every reduction runs the
// paper's exact first-match scan, so no value changes an output byte.
//
// Deprecated: perfbench is the last caller.
type MatchMode = core.MatchMode

const (
	// Deprecated: selects the exact scan. perfbench is the last caller.
	MatchModeExact = core.MatchModeExact
	// Deprecated: selects the exact scan. perfbench is the last caller.
	MatchModeAuto = core.MatchModeAuto
)

// NewMethod constructs a similarity method by name and threshold.
func NewMethod(name string, threshold float64) (Method, error) {
	return core.NewMethod(name, threshold)
}

// DefaultMethod constructs a method at its paper-default threshold.
func DefaultMethod(name string) (Method, error) { return core.DefaultMethod(name) }

// Reduce segments every rank of t and reduces it with the method,
// keeping one representative per repeating pattern. Ranks are reduced in
// parallel on a GOMAXPROCS-bounded worker pool; the result is
// deterministic and byte-identical to ReduceSequential.
func Reduce(t *Trace, m Method) (*Reduced, error) { return core.Reduce(t, m) }

// ReduceSequential is the retained single-threaded reference reduction;
// prefer Reduce.
func ReduceSequential(t *Trace, m Method) (*Reduced, error) { return core.ReduceSequential(t, m) }

// Streaming API: the incremental building blocks the batch entry points
// are made of, for callers that reduce traces too large to materialize.
type (
	// RankReduced is the reduced form of one rank's trace.
	RankReduced = core.RankReduced
	// RankReducer reduces one rank's segment stream incrementally.
	RankReducer = core.RankReducer
	// SegmentSplitter cuts one rank's event stream into segments
	// incrementally.
	SegmentSplitter = segment.Splitter
	// TraceDecoder reads a binary trace file one rank at a time.
	TraceDecoder = trace.Decoder
)

// NewRankReducer returns an incremental reducer for one rank's segments:
// Feed segments (or FeedEvents raw events) as they arrive, then Finish.
func NewRankReducer(rank int, m Method) *RankReducer { return core.NewRankReducer(rank, m) }

// NewSegmentSplitter returns an incremental splitter for one rank's
// events: Feed events in trace order; completed segments come back as
// their closing markers arrive.
func NewSegmentSplitter(rank int) *SegmentSplitter { return segment.NewSplitter(rank) }

// NewTraceDecoder opens a binary trace stream for rank-at-a-time
// decoding.
func NewTraceDecoder(r io.Reader) (*TraceDecoder, error) { return trace.NewDecoder(r) }

// ReduceStream reduces ranks as d decodes them, holding at most a worker
// pool's worth of ranks in memory instead of the whole trace. The result
// is byte-identical to Reduce over the fully decoded trace. When it
// returns an error it has closed d.
func ReduceStream(d *TraceDecoder, m Method) (*Reduced, error) {
	red, err := core.ReduceStream(d.Name(), m, d.NextRank)
	return red, closeOnError(d, err)
}

// closeOnError closes d when a reduction over it returned err. The
// reduction stops pulling ranks at its first failure, and an unclosed
// random-access version-2 decoder would keep its block workers, and the
// ranks they decoded ahead, waiting for a consumer that never returns.
func closeOnError(d *TraceDecoder, err error) error {
	if err != nil {
		d.Close()
	}
	return err
}

// SplitSegments segments a trace without reducing it; the result is
// indexed by rank.
func SplitSegments(t *Trace) ([][]*Segment, error) { return segment.SplitTrace(t) }

// ApproximationDistance reports the absolute timestamp error that the
// given quantile of stamps stays within when approx is compared with full
// (the paper uses quantile 0.9).
func ApproximationDistance(full, approx *Trace, quantile float64) (Time, error) {
	return core.ApproximationDistance(full, approx, quantile)
}

// Analyze produces the EXPERT-style diagnosis of a trace.
func Analyze(t *Trace) (*Diagnosis, error) { return expert.Analyze(t) }

// AnalyzeReduced produces the EXPERT-style diagnosis directly from a
// reduced trace — equal to Analyze(red.Reconstruct()) but computed from
// the stored representatives and 12-byte execution records, at a cost
// proportional to representatives + execution records + communication
// events instead of the full event count.
func AnalyzeReduced(red *Reduced) (*Diagnosis, error) { return expert.AnalyzeReduced(red) }

// ApproximationDistanceReduced reports the approximation distance of a
// reduction without reconstructing it — equal to
// ApproximationDistance(full, red.Reconstruct(), quantile).
func ApproximationDistanceReduced(full *Trace, red *Reduced, quantile float64) (Time, error) {
	return core.ApproximationDistanceReduced(full, red, quantile)
}

// CompareDiagnoses judges whether the reconstructed trace's diagnosis
// retains the full trace's performance trends under the study's
// guidelines.
func CompareDiagnoses(full, approx *Diagnosis) Verdict {
	return cube.Compare(full, approx, cube.DefaultCompareOptions())
}

// Chart renders a diagnosis as a per-rank severity chart (the textual
// analogue of the paper's CUBE screenshots). Cells below minFrac of the
// chart scale are omitted.
func Chart(d *Diagnosis, minFrac float64) string { return cube.Chart(d, minFrac) }

// Score scores an already-computed reduction against its full trace,
// returning all four study criteria. The reduction is scored directly
// from its reduced form — the approximate trace is never reconstructed.
func Score(full *Trace, red *Reduced) (*EvalResult, error) {
	fullDiag, err := expert.Analyze(full)
	if err != nil {
		return nil, err
	}
	return eval.EvaluateReduced(full, fullDiag, red)
}

// ScoreReduced is Score with the full trace's diagnosis supplied by the
// caller, so scoring many reductions of the same workload analyzes the
// full trace once.
func ScoreReduced(full *Trace, fullDiag *Diagnosis, red *Reduced) (*EvalResult, error) {
	return eval.EvaluateReduced(full, fullDiag, red)
}

// Evaluate runs the full pipeline — reduce, measure, re-diagnose
// directly from the reduced form, compare — for a method name and
// threshold.
func Evaluate(full *Trace, method string, threshold float64) (*EvalResult, error) {
	fullDiag, err := expert.Analyze(full)
	if err != nil {
		return nil, err
	}
	return eval.Evaluate(full, fullDiag, method, threshold)
}

// WorkloadNames returns the study's 20 workload names in catalog order.
func WorkloadNames() []string { return eval.AllNames() }

// GenerateWorkload builds and simulates one of the named study workloads
// and returns its full trace.
func GenerateWorkload(name string) (*Trace, error) {
	w, err := eval.Lookup(name)
	if err != nil {
		return nil, err
	}
	return w.Generate()
}

// Signature is a content hash of a trace: SHA-256 over the decoded
// events rather than the container bytes, so the v1 and v2 encodings of
// the same trace share one signature.
type Signature = trace.Signature

// ParseSignature parses the hex form produced by Signature.String.
func ParseSignature(s string) (Signature, error) { return trace.ParseSignature(s) }

// TraceSignature decodes the trace readable from r (either container
// version) and returns its content signature — the key the serving
// layer's representative cache is addressed by.
func TraceSignature(r io.Reader) (Signature, error) { return trace.SignatureOf(r) }

// TraceSignatureWith is TraceSignature with explicit decoder options
// (worker count, allocation caps, cancellation).
func TraceSignatureWith(r io.Reader, opts DecoderOptions) (Signature, error) {
	return trace.SignatureOfWith(r, opts)
}

// WriteTrace stores a trace in the binary trace format.
func WriteTrace(w io.Writer, t *Trace) error { return trace.Encode(w, t) }

// ReadTrace loads a trace written by WriteTrace.
func ReadTrace(r io.Reader) (*Trace, error) { return trace.Decode(r) }

// WriteReduced stores a reduced trace in the reduced binary format.
func WriteReduced(w io.Writer, red *Reduced) error { return core.EncodeReduced(w, red) }

// ReadReduced loads a reduced trace written by WriteReduced.
func ReadReduced(r io.Reader) (*Reduced, error) { return core.DecodeReduced(r) }

// TraceSize returns the encoded byte size of a full trace.
func TraceSize(t *Trace) int64 { return trace.EncodedSize(t) }

// ReducedSize returns the encoded byte size of a reduced trace.
func ReducedSize(red *Reduced) int64 { return core.EncodedReducedSize(red) }
