// Package serve is the multi-tenant trace-reduction service layered on
// the streaming engine: an HTTP API that accepts concurrent trace
// uploads, shards each upload's ranks across a bounded global worker
// fleet, and streams back reduced containers byte-identical to the
// tracereduce CLI's output. It adds what the one-shot CLIs cannot:
// admission control and back-pressure, graceful degradation under load,
// a signature-keyed representative cache, and a live metrics surface.
// See docs/SERVICE.md for the API reference.
package serve

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// The metrics kit is deliberately tiny: counters, gauges, and fixed-
// bucket histograms rendered in the Prometheus text exposition format.
// The repository takes no dependencies, so the service carries its own
// fifty-line implementation instead of a client library.

// Counter is a monotonically increasing metric.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n (n must be non-negative).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a metric that can go up and down.
type Gauge struct{ v atomic.Int64 }

// Set replaces the gauge value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add moves the gauge by n (negative to decrease) and returns the new
// value (admission uses the post-increment occupancy directly).
func (g *Gauge) Add(n int64) int64 { return g.v.Add(n) }

// Value returns the current gauge value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bucket latency/size histogram with cumulative
// bucket counts, a running sum, and p50/p99 estimates interpolated from
// the bucket boundaries.
type Histogram struct {
	mu      sync.Mutex
	bounds  []float64 // upper bounds, ascending; +Inf is implicit
	counts  []int64   // per-bucket (non-cumulative), len(bounds)+1
	sum     float64
	samples int64
}

// NewHistogram returns a histogram over the given ascending upper
// bounds (the +Inf bucket is implicit).
func NewHistogram(bounds ...float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]int64, len(bounds)+1)}
}

// DefaultLatencyBuckets spans 1ms..30s, the service's request range.
func DefaultLatencyBuckets() []float64 {
	return []float64{0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i]++
	h.sum += v
	h.samples++
	h.mu.Unlock()
}

// Count returns the number of samples observed.
func (h *Histogram) Count() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.samples
}

// Quantile estimates the q-quantile (0..1) by linear interpolation
// inside the owning bucket; NaN with no samples.
func (h *Histogram) Quantile(q float64) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.quantileLocked(q)
}

func (h *Histogram) quantileLocked(q float64) float64 {
	if h.samples == 0 {
		return math.NaN()
	}
	rank := float64(q * float64(h.samples))
	var seen int64
	for i, c := range h.counts {
		if float64(seen+c) >= rank && c > 0 {
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			hi := lo
			if i < len(h.bounds) {
				hi = h.bounds[i]
			}
			frac := (rank - float64(seen)) / float64(c)
			return lo + float64((hi-lo)*frac)
		}
		seen += c
	}
	return h.bounds[len(h.bounds)-1]
}

// Metrics is the service's metric registry. All fields are safe for
// concurrent use; WriteTo renders the Prometheus text form.
type Metrics struct {
	// SessionsTotal counts admitted reduce sessions; SessionsRejected
	// counts 429 back-pressure responses.
	SessionsTotal    Counter
	SessionsRejected Counter
	// SessionsDegraded counts admitted sessions served with coarsened
	// parameters under load.
	SessionsDegraded Counter
	// CacheHits / CacheMisses count representative-cache outcomes.
	CacheHits   Counter
	CacheMisses Counter
	// AnalyzeTotal counts /v1/analyze requests served.
	AnalyzeTotal Counter
	// ErrorsTotal counts requests that failed with a 4xx/5xx other than
	// admission rejections.
	ErrorsTotal Counter
	// BytesIn / BytesOut tally upload and response body bytes.
	BytesIn  Counter
	BytesOut Counter
	// InflightSessions is the current admitted-session count;
	// FleetBusy is the number of fleet worker slots currently leased.
	InflightSessions Gauge
	FleetBusy        Gauge
	// CacheBytes / CacheEntries mirror the representative cache.
	CacheBytes   Gauge
	CacheEntries Gauge
	// ReduceSeconds observes end-to-end /v1/reduce latency.
	ReduceSeconds *Histogram
}

// NewMetrics returns a registry with histograms initialized.
func NewMetrics() *Metrics {
	return &Metrics{ReduceSeconds: NewHistogram(DefaultLatencyBuckets()...)}
}

// WriteTo renders every metric in the Prometheus text exposition
// format, stable-ordered so scrapes diff cleanly.
func (m *Metrics) WriteTo(w io.Writer) (int64, error) {
	var b strings.Builder
	counter := func(name, help string, v int64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v int64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}
	counter("tracered_sessions_total", "Admitted reduce sessions.", m.SessionsTotal.Value())
	counter("tracered_sessions_rejected_total", "Sessions rejected with 429 back-pressure.", m.SessionsRejected.Value())
	counter("tracered_sessions_degraded_total", "Sessions served with degraded parameters under load.", m.SessionsDegraded.Value())
	counter("tracered_cache_hits_total", "Representative cache hits.", m.CacheHits.Value())
	counter("tracered_cache_misses_total", "Representative cache misses.", m.CacheMisses.Value())
	counter("tracered_analyze_total", "Analyze requests served.", m.AnalyzeTotal.Value())
	counter("tracered_errors_total", "Failed requests (non-admission 4xx/5xx).", m.ErrorsTotal.Value())
	counter("tracered_bytes_in_total", "Upload body bytes read.", m.BytesIn.Value())
	counter("tracered_bytes_out_total", "Response body bytes written.", m.BytesOut.Value())
	gauge("tracered_inflight_sessions", "Currently admitted sessions.", m.InflightSessions.Value())
	gauge("tracered_fleet_busy_workers", "Fleet worker slots currently leased.", m.FleetBusy.Value())
	gauge("tracered_cache_bytes", "Bytes held by the representative cache.", m.CacheBytes.Value())
	gauge("tracered_cache_entries", "Entries held by the representative cache.", m.CacheEntries.Value())

	h := m.ReduceSeconds
	h.mu.Lock()
	fmt.Fprintf(&b, "# HELP tracered_reduce_seconds End-to-end /v1/reduce latency.\n# TYPE tracered_reduce_seconds histogram\n")
	var cum int64
	for i, bound := range h.bounds {
		cum += h.counts[i]
		fmt.Fprintf(&b, "tracered_reduce_seconds_bucket{le=%q} %d\n", trimFloat(bound), cum)
	}
	cum += h.counts[len(h.bounds)]
	fmt.Fprintf(&b, "tracered_reduce_seconds_bucket{le=\"+Inf\"} %d\n", cum)
	fmt.Fprintf(&b, "tracered_reduce_seconds_sum %g\n", h.sum)
	fmt.Fprintf(&b, "tracered_reduce_seconds_count %d\n", h.samples)
	h.mu.Unlock()

	n, err := io.WriteString(w, b.String())
	return int64(n), err
}

// trimFloat formats a bucket bound the way Prometheus clients do.
func trimFloat(v float64) string {
	return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%.4f", v), "0"), ".")
}
