package tracered

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/trace"
)

// Format selects the container version the writer entry points emit.
// Readers never need one: ReadTrace, ReadReduced, and NewTraceDecoder
// sniff the magic and accept every released version.
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

// FormatNames lists the accepted format spellings in display order.
var FormatNames = []string{"v1", "v2"}

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
// ready to use. Workers bounds the block-decode pool for v2 containers
// on random-access inputs (0 means GOMAXPROCS); v1 containers decode
// sequentially regardless. Ctx cancels an in-flight decode; Limits
// tightens the hostile-input allocation caps for untrusted inputs.
type DecoderOptions = trace.DecoderOptions

// DecodeLimits bound what a decoder accepts from a container header
// before the body proves the bytes exist; the zero value keeps the
// library's historical caps. Servers decoding uploads lower them to
// enforce per-tenant budgets.
type DecodeLimits = trace.DecodeLimits

// EncoderOptions tunes version-aware trace writing; the zero value is
// ready to use. Workers bounds the block-encode pool for v2 containers
// (0 means GOMAXPROCS, 1 encodes inline); the encoded bytes are
// identical at every setting. v1 containers encode sequentially
// regardless.
type EncoderOptions = trace.EncoderOptions

// WriteTraceFormat stores a trace in the requested container format.
// Version-2 blocks are encoded on a GOMAXPROCS worker pool; use
// WriteTraceFormatWith to bound it.
func WriteTraceFormat(w io.Writer, t *Trace, f Format) error {
	return WriteTraceFormatWith(w, t, f, EncoderOptions{})
}

// WriteTraceFormatWith is WriteTraceFormat with explicit options.
func WriteTraceFormatWith(w io.Writer, t *Trace, f Format, opts EncoderOptions) error {
	switch f {
	case FormatV1:
		return trace.Encode(w, t)
	case FormatV2:
		return trace.EncodeV2With(w, t, opts)
	default:
		return fmt.Errorf("tracered: unknown trace format %v", f)
	}
}

// WriteReducedFormat stores a reduced trace in the requested container
// format. Version-2 blocks are encoded on a GOMAXPROCS worker pool; use
// WriteReducedFormatWith to bound it.
func WriteReducedFormat(w io.Writer, red *Reduced, f Format) error {
	return WriteReducedFormatWith(w, red, f, EncoderOptions{})
}

// WriteReducedFormatWith is WriteReducedFormat with explicit options.
func WriteReducedFormatWith(w io.Writer, red *Reduced, f Format, opts EncoderOptions) error {
	switch f {
	case FormatV1:
		return core.EncodeReduced(w, red)
	case FormatV2:
		return core.EncodeReducedV2With(w, red, opts)
	default:
		return fmt.Errorf("tracered: unknown reduced format %v", f)
	}
}

// TraceSizeFormat returns the encoded byte size of a full trace in the
// requested container format.
func TraceSizeFormat(t *Trace, f Format) int64 {
	if f == FormatV2 {
		return trace.EncodedSizeV2(t)
	}
	return trace.EncodedSize(t)
}

// ReducedSizeFormat returns the encoded byte size of a reduced trace in
// the requested container format.
func ReducedSizeFormat(red *Reduced, f Format) int64 {
	if f == FormatV2 {
		return core.EncodedReducedSizeV2(red)
	}
	return core.EncodedReducedSize(red)
}

// NewTraceDecoderWith is NewTraceDecoder with explicit options: on a
// random-access v2 container the decoder fans blocks across
// opts.Workers goroutines while NextRank streams ranks in order.
func NewTraceDecoderWith(r io.Reader, opts DecoderOptions) (*TraceDecoder, error) {
	return trace.NewDecoderWith(r, opts)
}

// ReadReducedWith is ReadReduced with explicit options (see
// DecoderOptions for what they tune).
func ReadReducedWith(r io.Reader, opts DecoderOptions) (*Reduced, error) {
	return core.DecodeReducedWith(r, opts)
}

// ReduceStreamStats summarizes a pipelined ReduceStreamToWriter run: the
// batch reduction's counters plus the bytes written.
type ReduceStreamStats = core.StreamStats

// ReduceStreamToWriter reduces ranks as d decodes them AND writes the
// reduced container to w in the requested format, fully pipelined:
// decode, per-rank reduction, and reduced-block encode overlap on one
// worker pool, and each rank's block is encoded by the worker that
// reduced it. The bytes written are identical to WriteReducedFormat of
// the ReduceStream result, but the full Reduced is never materialized —
// peak memory is a pool's worth of ranks plus the compact encoded
// blocks. When it returns an error it has closed d.
func ReduceStreamToWriter(d *TraceDecoder, m Method, w io.Writer, f Format) (*ReduceStreamStats, error) {
	return ReduceStreamToWriterMode(d, m, MatchModeExact, w, f)
}

// ReduceStreamToWriterMode is ReduceStreamToWriter under an explicit
// MatchMode.
func ReduceStreamToWriterMode(d *TraceDecoder, m Method, mode MatchMode, w io.Writer, f Format) (*ReduceStreamStats, error) {
	return ReduceStreamToWriterOpts(d, m, w, f, StreamOptions{Mode: mode})
}

// StreamOptions configure the pipelined reduce-to-writer path: match
// mode, worker-pool bound (0 means GOMAXPROCS; the bytes written are
// identical at every setting), and a cancellation context. The zero
// value is the exact-scan default.
type StreamOptions = core.StreamOptions

// ReduceStreamToWriterOpts is ReduceStreamToWriter with explicit
// options, the form the serving layer uses to bound each session's
// share of the worker fleet and to stop the pipeline when a client
// disconnects. Like ReduceStreamToWriter, it closes d when it returns an
// error.
func ReduceStreamToWriterOpts(d *TraceDecoder, m Method, w io.Writer, f Format, opts StreamOptions) (*ReduceStreamStats, error) {
	switch f {
	case FormatV1, FormatV2:
	default:
		return nil, closeOnError(d, fmt.Errorf("tracered: unknown reduced format %v", f))
	}
	// The decoder owning the ranks is right here, so recycle event
	// buffers back to it by default: steady-state event storage stays at
	// O(workers) buffers however many ranks stream through.
	if opts.Recycle == nil {
		opts.Recycle = d.Recycle
	}
	st, err := core.ReduceStreamToWriterOpts(d.Name(), m, d.NextRank, w, int(f), opts)
	return st, closeOnError(d, err)
}
