// Command perfbench is tracered's benchmark. One run drives one workload
// through the library's public layer calls, checks every output against
// committed SHA-256 digests, and prints the workload's metrics as one
// JSON object on the last line of standard output: the end-to-end
// metrics, measured untraced, with --trace 0, and the per-layer metrics
// of a separate traced run with --trace 1. README.md describes the
// workloads and every metric.
//
// run.sh builds it from the checkout and passes its arguments through:
//
//	bash perfbench/run.sh --workload catalog_study --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/tracered"
)

// config is one run's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	// workers bounds the pipeline's workers and the client's
	// connections: nproc, the load one process can offer.
	workers int
	// setupRuns is how often set-up repeats; setup_s is the median.
	setupRuns int
	// catalog names the study traces catalog_study and serve_mixed use.
	catalog []string
	// mutate, when set, corrupts every output before its digest check;
	// the self-test uses it to show that a wrong byte fails the run.
	mutate func([]byte)
}

// workloads maps each workload's name to its runner.
var workloads = map[string]func(*config) (*report, error){
	"catalog_study":     runCatalog,
	"matcher_worstcase": runMatcher,
	"serve_mixed":       runServe,
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet maps metric names to values.
type metricSet map[string]metric

// put records a metric. A ratio with nothing behind it (NaN, or an
// infinity from dividing by zero: a layer the workload does not
// exercise) reads 0, since JSON carries neither.
func (m metricSet) put(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m[name] = metric{Value: v, Unit: unit}
}

// result is the JSON object on the last line of standard output.
type result struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

// report is a workload's outcome: the result plus what the run record
// keeps beside it.
type report struct {
	result
	measured time.Duration  // length of the measurement window
	samples  map[string]int // sample counts behind the reported figures
	errs     []string       // the first failures, for standard error
	spans    []span         // traced runs only
}

func newReport(measured time.Duration) *report {
	return &report{result: result{Metrics: metricSet{}}, measured: measured, samples: map[string]int{}}
}

// merge adds a tally's operations and failures to the report.
func (r *report) merge(t tally) {
	r.Attempted += t.attempted
	r.Failed += t.failed
	r.errs = append(r.errs, t.errs...)
}

// fail records a failure that belongs to no single operation, such as a
// failed stage-sum check.
func (r *report) fail(err error) {
	r.Failed++
	r.errs = append(r.errs, err.Error())
}

// runConfig runs cfg's workload and judges the result: correct when at
// least one operation ran and none failed.
func runConfig(cfg *config) (*report, error) {
	rep, err := workloads[cfg.workload](cfg)
	if err != nil {
		return nil, err
	}
	rep.Correct = rep.Failed == 0 && rep.Attempted > 0
	return rep, nil
}

// provenance identifies what produced a result.
type provenance struct {
	Workload        string         `json:"workload"`
	Seed            int64          `json:"seed"`
	Traced          bool           `json:"traced"`
	Commit          string         `json:"commit"`
	GoVersion       string         `json:"go_version"`
	GOOS            string         `json:"goos"`
	GOARCH          string         `json:"goarch"`
	GOMAXPROCS      int            `json:"gomaxprocs"`
	NumCPU          int            `json:"num_cpu"`
	Workers         int            `json:"workers"`
	Started         string         `json:"started"`
	RunSeconds      float64        `json:"run_seconds"`
	MeasuredSeconds float64        `json:"measured_seconds"`
	Samples         map[string]int `json:"samples"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run executes one invocation and returns its exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "catalog_study, matcher_worstcase, or serve_mixed")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 10, "length of the measurement window in seconds")
	traceFlag := fs.Int("trace", 0, "1 runs the traced pass and reports the per-layer metrics")
	commit := fs.String("commit", "unknown", "source revision recorded with the result")
	out := fs.String("out", "", "directory for the run record: provenance, result, and spans")
	digestFile := fs.String("write-digests", "", "regenerate the committed output digests into this file and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if *digestFile != "" {
		if err := writeDigests(*digestFile); err != nil {
			return fail(err)
		}
		return 0
	}
	if _, ok := workloads[*workload]; !ok || *seconds <= 0 || *traceFlag < 0 || *traceFlag > 1 {
		fmt.Fprintln(stderr, "perfbench: want --workload catalog_study|matcher_worstcase|serve_mixed, --seconds > 0, --trace 0|1")
		return 2
	}
	cfg := &config{
		workload:  *workload,
		seed:      *seed,
		seconds:   *seconds,
		traced:    *traceFlag == 1,
		workers:   runtime.GOMAXPROCS(0),
		setupRuns: 5,
		catalog:   tracered.WorkloadNames(),
	}
	started := time.Now()
	rep, err := runConfig(cfg)
	if err != nil {
		return fail(err)
	}
	for _, e := range rep.errs {
		fmt.Fprintln(stderr, "perfbench: failed:", e)
	}
	prov := provenance{
		Workload:        cfg.workload,
		Seed:            cfg.seed,
		Traced:          cfg.traced,
		Commit:          *commit,
		GoVersion:       runtime.Version(),
		GOOS:            runtime.GOOS,
		GOARCH:          runtime.GOARCH,
		GOMAXPROCS:      runtime.GOMAXPROCS(0),
		NumCPU:          runtime.NumCPU(),
		Workers:         cfg.workers,
		Started:         started.UTC().Format(time.RFC3339),
		RunSeconds:      cfg.seconds,
		MeasuredSeconds: rep.measured.Seconds(),
		Samples:         rep.samples,
	}
	if *out != "" {
		if err := writeRecord(*out, prov, rep); err != nil {
			return fail(err)
		}
	}
	provLine, err := json.Marshal(map[string]provenance{"provenance": prov})
	if err != nil {
		return fail(err)
	}
	resultLine, err := json.Marshal(rep.result)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "%s\n%s\n", provLine, resultLine)
	if !rep.Correct {
		return 1
	}
	return 0
}

// writeRecord stores the run's full record — provenance, result, and the
// spans of a traced run — as <workload>-seed<N>-trace<0|1>.json in dir.
func writeRecord(dir string, prov provenance, rep *report) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	buf, err := json.Marshal(struct {
		Provenance provenance `json:"provenance"`
		Result     result     `json:"result"`
		Spans      []span     `json:"spans,omitempty"`
	}{prov, rep.result, rep.spans})
	if err != nil {
		return err
	}
	traced := 0
	if prov.Traced {
		traced = 1
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", prov.Workload, prov.Seed, traced)
	return os.WriteFile(filepath.Join(dir, name), append(buf, '\n'), 0o644)
}
