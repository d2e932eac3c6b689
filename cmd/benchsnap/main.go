// Command benchsnap measures a benchmark suite and writes the snapshot
// to a committed JSON file. The codec suite compares the v1 and v2 trace
// containers — bytes on disk per workload, encode/decode cost,
// block-parallel decode and encode scaling per worker count, and the
// pipelined reduce-to-writer path against the batch reduce-then-encode
// path per GOMAXPROCS setting; the serve suite round-trips the
// tracereduced service over the 20-workload catalog — cold reduce
// latency, cache-hit replay speedup, and warm-catalog throughput with
// latency quantiles.
//
// Usage:
//
//	benchsnap                      # writes BENCH_codec.json
//	benchsnap -suite serve         # writes BENCH_serve.json
//	benchsnap -out /tmp/snap.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

func main() {
	suite := flag.String("suite", "codec", "benchmark suite: codec or serve")
	out := flag.String("out", "", "output snapshot file (default BENCH_<suite>.json)")
	flag.Parse()

	var snap any
	var err error
	switch *suite {
	case "codec":
		snap, err = measureCodec()
	case "serve":
		snap, err = measureServe()
	default:
		fmt.Fprintf(os.Stderr, "benchsnap: unknown suite %q (want codec or serve)\n", *suite)
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchsnap:", err)
		os.Exit(1)
	}
	if *out == "" {
		*out = "BENCH_" + *suite + ".json"
	}
	buf, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchsnap:", err)
		os.Exit(1)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchsnap:", err)
		os.Exit(1)
	}
	fmt.Println("wrote", *out)
}

// round2 keeps the committed JSON stable to read (two decimals).
func round2(v float64) float64 { return float64(int64(float64(v*100)+0.5)) / 100 }
