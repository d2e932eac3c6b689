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
// Every run is pipelined: the trace is decoded, segmented, and reduced
// rank by rank on a worker pool, so only a pool's worth of decoded ranks
// is ever held in memory, and the compact reduction is then encoded on
// the same pool. The full trace is never materialized.
// The container goes to -out, byte-identical to reducing in memory and
// encoding afterwards; without -out it is only counted, or kept in
// memory when -verify needs it back. -out may not name the input file.
// With -verify the tool re-reads the full trace and reports the
// approximation distance and trend retention, the remaining two
// criteria.
// -cpuprofile/-memprofile/-mutexprofile/-blockprofile write standard
// pprof profiles of the run, the measurement hooks for matcher and
// engine work (the mutex and block profiles expose waits on the
// engine's claim lock).
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
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
	defer f.Close()
	// The input file is the encoded full trace, so its size on disk is the
	// full-trace byte count the paper's size criterion divides by.
	st, err := f.Stat()
	if err != nil {
		return err
	}
	fullBytes := st.Size()
	// Creating the output truncates it, so an output that is the input
	// (by name or through a link) would destroy the trace being read.
	if out != "" {
		if ost, err := os.Stat(out); err == nil && os.SameFile(st, ost) {
			return fmt.Errorf("-out %s is the input file %s; refusing to overwrite it", out, in)
		}
	}
	dec, err := tracered.NewTraceDecoderWith(f, tracered.DecoderOptions{})
	if err != nil {
		return fmt.Errorf("reading trace: %w", err)
	}
	defer dec.Close()

	// Decode and per-rank reduction overlap, and the full trace is never
	// materialized. The container goes to the output file, or to memory
	// when -verify needs it back, or else is only counted.
	var w io.Writer = io.Discard
	var g *os.File
	var mem bytes.Buffer
	switch {
	case out != "":
		if g, err = os.Create(out); err != nil {
			return err
		}
		w = g
	case verify:
		w = &mem
	}
	stats, err := tracered.ReduceStreamToWriterOpts(dec, m, w, fv, tracered.StreamOptions{})
	if g != nil {
		if cerr := g.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("closing: %w", cerr)
		}
		if err != nil {
			// The pipeline writes only once the input is exhausted, so a
			// failed run would leave an empty or partial container behind.
			return errors.Join(err, os.Remove(out))
		}
	}
	if err != nil {
		return err
	}
	fmt.Printf("%s + %s(t=%g): %d -> %d bytes (%.2f%%), degree of matching %.3f, %d stored segments\n",
		stats.Name, method, threshold, fullBytes, stats.BytesWritten,
		100*float64(stats.BytesWritten)/float64(fullBytes), stats.DegreeOfMatching(), stats.StoredSegments)
	if out != "" {
		fmt.Println("wrote", out)
	}
	if !verify {
		return nil
	}
	// Score against the reduction actually written, read back from the
	// output file (block-parallel for v2 containers) or from memory.
	var src io.Reader = &mem
	if out != "" {
		h, err := os.Open(out)
		if err != nil {
			return err
		}
		defer h.Close()
		src = h
	}
	red, err := tracered.ReadReduced(src)
	if err != nil {
		return fmt.Errorf("re-reading the reduction: %w", err)
	}
	// Scoring needs the full trace for the approximation-distance and
	// trend-retention criteria; re-read it only now that it is needed.
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	full, err := tracered.ReadTrace(f)
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
	return nil
}
