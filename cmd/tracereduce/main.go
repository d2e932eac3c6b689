// Command tracereduce reduces a trace file with one of the nine
// similarity methods and writes the reduced trace, reporting the study's
// size and matching criteria.
//
// Usage:
//
//	tracereduce -in late_sender.trc -method avgWave -threshold 0.2 -out late_sender.trr
//	tracereduce -in late_sender.trc -method iter_k -threshold 10 -verify
//	tracereduce -in sweep.trc -method haarWave -format v2 -out sweep.trr
//	tracereduce -in sweep.trc -method haarWave -cpuprofile reduce.prof
//
// The input trace may be either container version (TRC1 or TRC2; v2
// containers decode their blocks in parallel). -format selects the
// version of the written reduced container: v1 (default) or v2.
//
// The trace is decoded, segmented, and reduced rank by rank on a worker
// pool, so only a pool's worth of ranks is ever held in memory alongside
// the reduction. With -out the run is fully pipelined: per-rank
// reduction and reduced-block encoding overlap the decode, the full
// reduction is never materialized, and the written container is
// byte-identical to reducing in memory and encoding afterwards. With
// -verify the tool re-reads the full trace,
// reconstructs, and reports the approximation distance and trend
// retention, the remaining two criteria.
// -cpuprofile/-memprofile/-mutexprofile/-blockprofile write standard
// pprof profiles of the run, the measurement hooks for matcher and
// engine work (the mutex and block profiles expose pipeline turnstile
// and semaphore waits).
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"repro/internal/profiling"
	"repro/tracered"
)

func main() {
	in := flag.String("in", "", "input trace file (from tracegen)")
	out := flag.String("out", "", "output reduced-trace file (optional)")
	method := flag.String("method", "avgWave", "similarity method")
	threshold := flag.Float64("threshold", 0, "match threshold, finite and >= 0 (default: the paper's per-method default)")
	format := flag.String("format", "v1", "output container format: v1 or v2")
	verify := flag.Bool("verify", false, "also reconstruct and score error/trend retention")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the reduction to `file`")
	memprofile := flag.String("memprofile", "", "write a heap profile taken after the reduction to `file`")
	mutexprofile := flag.String("mutexprofile", "", "write a mutex-contention profile of the reduction to `file`")
	blockprofile := flag.String("blockprofile", "", "write a blocking (channel/semaphore wait) profile to `file`")
	flag.Parse()

	if *in == "" {
		fmt.Fprintln(os.Stderr, "tracereduce: -in is required")
		os.Exit(2)
	}
	// Only an absent -threshold takes the default; an explicit value,
	// negative ones included, goes to NewMethod's check.
	thresholdSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "threshold" {
			thresholdSet = true
		}
	})
	if !thresholdSet {
		t, ok := tracered.DefaultThresholds[*method]
		if !ok {
			fmt.Fprintf(os.Stderr, "tracereduce: unknown method %q\n", *method)
			os.Exit(2)
		}
		*threshold = t
	}
	fv, err := tracered.ParseFormat(*format)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracereduce:", err)
		os.Exit(2)
	}
	stopProf, err := profiling.StartProfiles(profiling.Profiles{
		CPU: *cpuprofile, Mem: *memprofile, Mutex: *mutexprofile, Block: *blockprofile,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracereduce:", err)
		os.Exit(1)
	}
	runErr := run(*in, *out, *method, *threshold, fv, *verify)
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "tracereduce:", runErr)
	}
	if err := stopProf(); err != nil {
		fmt.Fprintln(os.Stderr, "tracereduce:", err)
		os.Exit(1)
	}
	if runErr != nil {
		os.Exit(1)
	}
}

func run(in, out, method string, threshold float64, fv tracered.Format, verify bool) error {
	m, err := tracered.NewMethod(method, threshold)
	if err != nil {
		return err
	}
	f, err := os.Open(in)
	if err != nil {
		return err
	}
	dec, err := tracered.NewTraceDecoder(f)
	if err != nil {
		f.Close()
		return fmt.Errorf("reading trace: %w", err)
	}
	defer dec.Close()
	// The input file is the encoded full trace, so its size on disk is the
	// full-trace byte count the paper's size criterion divides by.
	st, err := os.Stat(in)
	if err != nil {
		f.Close()
		return err
	}
	fullBytes := st.Size()
	summary := func(name string, redBytes int64, degree float64, stored int) {
		fmt.Printf("%s + %s(t=%g): %d -> %d bytes (%.2f%%), degree of matching %.3f, %d stored segments\n",
			name, method, threshold, fullBytes, redBytes,
			100*float64(redBytes)/float64(fullBytes), degree, stored)
	}

	// With an output file the whole run is pipelined: decode, per-rank
	// reduction, and reduced-block encode overlap, and the full Reduced
	// is never materialized. Without one, reduce in memory and report.
	var red *tracered.Reduced
	if out != "" {
		g, err := os.Create(out)
		if err != nil {
			f.Close()
			return err
		}
		stats, err := tracered.ReduceStreamToWriter(dec, m, g, fv)
		f.Close()
		if cerr := g.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("closing: %w", cerr)
		}
		if err != nil {
			// The pipeline writes only once the input is exhausted, so a
			// failed run would leave an empty or partial container behind.
			return errors.Join(err, os.Remove(out))
		}
		summary(stats.Name, stats.BytesWritten, stats.DegreeOfMatching(), stats.StoredSegments)
		fmt.Println("wrote", out)
		if verify {
			// Score against the reduction actually written, re-read from
			// the output file (block-parallel for v2 containers).
			h, err := os.Open(out)
			if err != nil {
				return err
			}
			red, err = tracered.ReadReduced(h)
			h.Close()
			if err != nil {
				return fmt.Errorf("re-reading %s: %w", out, err)
			}
		}
	} else {
		red, err = tracered.ReduceStream(dec, m)
		f.Close()
		if err != nil {
			return err
		}
		summary(red.Name, tracered.ReducedSizeFormat(red, fv), red.DegreeOfMatching(), red.StoredSegments())
	}
	if verify {
		// Scoring needs the full trace for the approximation-distance and
		// trend-retention criteria; re-read it only now that it is needed.
		h, err := os.Open(in)
		if err != nil {
			return err
		}
		full, err := tracered.ReadTrace(h)
		h.Close()
		if err != nil {
			return fmt.Errorf("reading trace: %w", err)
		}
		res, err := tracered.Score(full, red)
		if err != nil {
			return fmt.Errorf("scoring: %w", err)
		}
		fmt.Printf("approximation distance (90th pct): %d time units\n", res.ApproxDist)
		if res.Retained {
			fmt.Println("performance trends: retained")
		} else {
			fmt.Println("performance trends: LOST")
			for _, issue := range res.Issues {
				fmt.Println("  -", issue)
			}
		}
	}
	return nil
}
