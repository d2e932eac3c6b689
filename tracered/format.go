package tracered

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/trace"
)

// Format selects the container version the writer entry points emit.
// Readers never need one: ReadTrace, ReadReduced, and
// NewTraceDecoderWith sniff the magic and accept every released version.
//
// FormatV1 is the fixed-width rank-sequential layout and stays the
// default interchange form; FormatV2 is the columnar block layout —
// smaller on disk (per-rank delta+varint encoding) and decodable
// block-parallel on random-access inputs. Files of either version stay
// readable forever; format changes get a new magic, never an edit to a
// released layout.
type Format int

const (
	// FormatV1 is the version-1 container (TRC1/TRR1): fixed-width
	// records, rank-sequential, the default.
	FormatV1 Format = 1
	// FormatV2 is the version-2 columnar container (TRC2/TRR2):
	// per-rank checksummed blocks with a footer index, delta+varint
	// record encoding, block-parallel decode.
	FormatV2 Format = 2
)

// ParseFormat parses a container-format name (a -format flag value).
func ParseFormat(s string) (Format, error) {
	switch s {
	case "v1", "1":
		return FormatV1, nil
	case "v2", "2":
		return FormatV2, nil
	default:
		return 0, fmt.Errorf("tracered: unknown format %q (want v1 or v2)", s)
	}
}

// String returns the canonical spelling ParseFormat accepts.
func (f Format) String() string {
	switch f {
	case FormatV1:
		return "v1"
	case FormatV2:
		return "v2"
	default:
		return fmt.Sprintf("Format(%d)", int(f))
	}
}

// DecoderOptions tunes version-aware trace reading; the zero value is
// ready to use. Ctx cancels an in-flight decode; Limits tightens the
// hostile-input allocation caps for untrusted inputs. Workers is
// ignored: the batch readers decode a random-access v2 input on
// GOMAXPROCS goroutines, a TraceDecoder reads on its caller's goroutine,
// and ReduceStreamToWriterOpts decodes such an input on its own workers,
// bounded by StreamOptions.Workers.
type DecoderOptions = trace.DecoderOptions

// DecodeLimits bound what a decoder accepts from a container header
// before the body proves the bytes exist; the zero value keeps the
// library's historical caps. Servers decoding uploads lower them to
// enforce per-tenant budgets.
type DecodeLimits = trace.DecodeLimits

// EncoderOptions is the type of WriteReducedFormatWith's ignored
// options.
//
// Deprecated: no tracered writer takes options; perfbench is the last
// caller.
type EncoderOptions struct {
	// Workers is ignored.
	Workers int
}

// WriteTraceFormat stores a trace in the requested container format,
// encoding each rank on the caller's goroutine.
func WriteTraceFormat(w io.Writer, t *Trace, f Format) error {
	switch f {
	case FormatV1:
		return trace.Encode(w, t)
	case FormatV2:
		return trace.EncodeV2(w, t)
	default:
		return fmt.Errorf("tracered: unknown trace format %v", f)
	}
}

// WriteReducedFormat stores a reduced trace in the requested container
// format, encoding each rank on the caller's goroutine.
func WriteReducedFormat(w io.Writer, red *Reduced, f Format) error {
	switch f {
	case FormatV1, FormatV2:
		return core.EncodeReduced(w, red, int(f))
	default:
		return fmt.Errorf("tracered: unknown reduced format %v", f)
	}
}

// WriteReducedFormatWith is WriteReducedFormat; opts is ignored.
//
// Deprecated: use WriteReducedFormat. perfbench is the last caller.
func WriteReducedFormatWith(w io.Writer, red *Reduced, f Format, opts EncoderOptions) error {
	return WriteReducedFormat(w, red, f)
}

// NewTraceDecoderWith opens a binary trace stream of either container
// version for rank-at-a-time decoding: NextRank decodes one rank per
// call on the caller's goroutine, and on a random-access v2 container
// ReduceStreamToWriterOpts reads the blocks by index on its own workers.
func NewTraceDecoderWith(r io.Reader, opts DecoderOptions) (*TraceDecoder, error) {
	return trace.NewDecoderWith(r, opts)
}

// ReadReducedWith is ReadReduced with explicit options (see
// DecoderOptions for what they tune).
func ReadReducedWith(r io.Reader, opts DecoderOptions) (*Reduced, error) {
	return core.DecodeReducedWith(r, opts)
}

// ReduceStreamStats summarizes a pipelined ReduceStreamToWriterOpts run:
// the batch reduction's counters plus the bytes written.
type ReduceStreamStats = core.StreamStats

// StreamOptions configure the pipelined reduce-to-writer path: the
// bound on the workers that decode (on a random-access v2 input),
// reduce and encode (0 means GOMAXPROCS; the bytes written are
// identical at every setting) and a cancellation context. Mode is
// ignored.
type StreamOptions = core.StreamOptions

// ReduceStreamToWriterOpts reduces ranks as d decodes them, then writes
// the reduced container to w in the requested format. Decode and
// per-rank reduction overlap on one worker pool, and on a random-access
// v2 input each worker decodes the rank it reduces; then the same pool
// size encodes the rank blocks in parallel. It runs Reduce and
// WriteReducedFormat's encoder, so the bytes written are identical to
// WriteReducedFormat of Reduce over the decoded trace, but the full
// trace is never materialized: peak memory is a pool's worth of decoded
// ranks plus every rank's compact reduction, each given back once its
// block is encoded. Each decoded rank goes back to d once reduced. The
// serving layer uses opts to bound each session's share of the worker
// fleet and to stop the pipeline when a client disconnects. When it
// returns an error it has closed d, and has written nothing.
func ReduceStreamToWriterOpts(d *TraceDecoder, m Method, w io.Writer, f Format, opts StreamOptions) (*ReduceStreamStats, error) {
	return core.ReduceStreamToWriterOpts(d, m, w, int(f), opts)
}
