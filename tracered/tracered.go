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

// Streaming API: the building blocks for callers that reduce traces too
// large to materialize (see ReduceStreamToWriterOpts).
type (
	// RankReduced is the reduced form of one rank's trace.
	RankReduced = core.RankReduced
	// SegmentSplitter cuts one rank's event stream into segments
	// incrementally.
	SegmentSplitter = segment.Splitter
	// TraceDecoder reads a binary trace file one rank at a time.
	TraceDecoder = trace.Decoder
)

// NewSegmentSplitter returns an incremental splitter for one rank's
// events: Feed events in trace order; completed segments come back as
// their closing markers arrive.
func NewSegmentSplitter(rank int) *SegmentSplitter { return segment.NewSplitter(rank) }

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
	return cube.Compare(full, approx)
}

// Chart renders a diagnosis as a per-rank severity chart (the textual
// analogue of the paper's CUBE screenshots). Cells below minFrac of the
// chart scale are omitted.
func Chart(d *Diagnosis, minFrac float64) string { return cube.Chart(d, minFrac) }

// Score scores an already-computed reduction against its full trace,
// returning all four study criteria. The reduction is scored directly
// from its reduced form — the approximate trace is never reconstructed.
// The criteria run concurrently, so full and red must not be mutated
// during the call.
func Score(full *Trace, red *Reduced) (*EvalResult, error) {
	fullDiag, err := expert.Analyze(full)
	if err != nil {
		return nil, err
	}
	return eval.EvaluateReduced(full, fullDiag, red)
}

// ScoreReduced is Score with the full trace's diagnosis supplied by the
// caller, so scoring many reductions of the same workload analyzes the
// full trace once. The criteria run concurrently, so full, fullDiag and
// red must not be mutated during the call.
func ScoreReduced(full *Trace, fullDiag *Diagnosis, red *Reduced) (*EvalResult, error) {
	return eval.EvaluateReduced(full, fullDiag, red)
}

// Evaluate runs the full pipeline — reduce, measure, re-diagnose
// directly from the reduced form, compare — for a method name and
// threshold. It scores as ScoreReduced does, so full must not be mutated
// during the call.
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

// TraceSignatureWith decodes the trace readable from r (either container
// version) under opts (allocation caps, cancellation) and returns its
// content signature — the key the serving layer's representative cache
// is addressed by.
func TraceSignatureWith(r io.Reader, opts DecoderOptions) (Signature, error) {
	return trace.SignatureOfWith(r, opts)
}

// ReadTrace loads a trace written by WriteTraceFormat, of either
// container version.
func ReadTrace(r io.Reader) (*Trace, error) { return trace.Decode(r) }

// ReadReduced loads a reduced trace written by WriteReducedFormat or
// ReduceStreamToWriterOpts, of either container version.
func ReadReduced(r io.Reader) (*Reduced, error) { return core.DecodeReduced(r) }

// TraceSize returns the byte size of a full trace's version-1 container,
// the denominator of the paper's size criterion.
func TraceSize(t *Trace) int64 { return trace.EncodedSize(t) }

// ReducedSize returns the byte size of a reduced trace's version-1
// container, the numerator of the paper's size criterion.
func ReducedSize(red *Reduced) int64 { return core.EncodedReducedSize(red) }
