package tracered_test

import (
	"bytes"
	"fmt"
	"log"

	"repro/tracered"
)

// ExampleReduce is the batch pipeline: generate (or load) a full trace,
// reduce it with one of the paper's nine similarity methods, and inspect
// the reduction shape. Workload generation is deterministic, so this
// example doubles as documentation that cannot rot.
func ExampleReduce() {
	full, err := tracered.GenerateWorkload("late_sender")
	if err != nil {
		log.Fatal(err)
	}
	method, err := tracered.DefaultMethod("avgWave")
	if err != nil {
		log.Fatal(err)
	}
	red, err := tracered.Reduce(full, method) // rank-parallel
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: kept %d of %d segments, degree of matching %.3f\n",
		red.Name, red.StoredSegments(), red.TotalSegments, red.DegreeOfMatching())
	// Output:
	// late_sender: kept 24 of 496 segments, degree of matching 1.000
}

// ExampleReduceStreamToWriterOpts is the pipeline for traces too large
// to materialize: ranks are decoded from the binary TRC1 format (see
// docs/FORMATS.md), reduced as they arrive, and written as a reduced
// container. The bytes are those of ExampleReduce's reduction written
// by WriteReducedFormat.
func ExampleReduceStreamToWriterOpts() {
	full, err := tracered.GenerateWorkload("late_sender")
	if err != nil {
		log.Fatal(err)
	}
	var file bytes.Buffer // stands in for the trace file on disk
	if err := tracered.WriteTraceFormat(&file, full, tracered.FormatV1); err != nil {
		log.Fatal(err)
	}

	dec, err := tracered.NewTraceDecoderWith(&file, tracered.DecoderOptions{}) // reads the header
	if err != nil {
		log.Fatal(err)
	}
	defer dec.Close()
	method, err := tracered.DefaultMethod("avgWave")
	if err != nil {
		log.Fatal(err)
	}
	var out bytes.Buffer // stands in for the reduced file
	stats, err := tracered.ReduceStreamToWriterOpts(dec, method, &out, tracered.FormatV1, tracered.StreamOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: %d ranks, %d bytes reduced\n", stats.Name, stats.Ranks, stats.BytesWritten)
	// Output:
	// late_sender: 8 ranks, 9493 bytes reduced
}

// ExampleEvaluate scores one (workload, method, threshold) cell against
// the study's four criteria. Scoring runs directly on the reduced form —
// the approximate trace is never reconstructed.
func ExampleEvaluate() {
	full, err := tracered.GenerateWorkload("late_sender")
	if err != nil {
		log.Fatal(err)
	}
	res, err := tracered.Evaluate(full, "avgWave", 0.2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("size %.2f%% of full trace\n", res.PctSize)
	fmt.Printf("degree of matching %.3f\n", res.Degree)
	fmt.Printf("approximation distance %dus\n", res.ApproxDist)
	fmt.Printf("trends retained: %v\n", res.Retained)
	// Output:
	// size 7.26% of full trace
	// degree of matching 1.000
	// approximation distance 38us
	// trends retained: true
}

// ExampleAnalyzeReduced diagnoses performance problems straight from a
// reduced trace — no reconstruction — and reports the dominant pattern.
func ExampleAnalyzeReduced() {
	full, err := tracered.GenerateWorkload("late_sender")
	if err != nil {
		log.Fatal(err)
	}
	method, err := tracered.DefaultMethod("avgWave")
	if err != nil {
		log.Fatal(err)
	}
	red, err := tracered.Reduce(full, method)
	if err != nil {
		log.Fatal(err)
	}
	diag, err := tracered.AnalyzeReduced(red)
	if err != nil {
		log.Fatal(err)
	}
	k := tracered.DiagnosisKey{Metric: "late_sender", Location: "MPI_Recv"}
	fmt.Printf("late sender time at MPI_Recv: %.0fus over %d ranks\n",
		diag.Total(k), diag.NumRanks)
	// Output:
	// late sender time at MPI_Recv: 110585us over 8 ranks
}
