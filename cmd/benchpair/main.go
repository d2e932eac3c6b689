// Command benchpair compares the benchmark of record between a parent
// revision and the checkout over alternating pairs of runs. Run it from
// the repository root:
//
//	go run ./cmd/benchpair -workload catalog_study -pairs 10 -claim events_per_s
//
// It extracts the parent revision (-base, default HEAD~1) with git
// archive into a temporary directory. For pair i it runs BENCHMARK.json's
// command with --workload W --seed S+i --seconds <run_seconds> --trace 0,
// once in that tree and once in the checkout, alternating which goes
// first, and reads the result from the last line of standard output.
//
// For each end-to-end metric of BENCHMARK.json it prints both medians
// with their quartiles, the change in percent, and the change's wins,
// losses and ties judged by the metric's "better". The verdicts are:
//
//   - regression: the change's median is worse than the parent's by more
//     than the metric's bound (a fraction of the parent's median);
//   - unresolved: the parent's own interquartile range is wider than the
//     bound, unless every change run beats every parent run;
//   - gain, for the -claim metric only: the change wins at least 9 of
//     every 10 pairs, ties counting for neither side, and the medians
//     differ by more than the parent's interquartile range.
//
// With -claim, the report ends with the claimed metric's row for
// docs/TRAJECTORY.md, which names the parent by its abbreviated commit:
//
//	| `79c0b21` | serve_mixed | latency_p50_ms | 6.032 | 2.965 | -50.8% | 10 | 10/10 |
//
// A run that reads "correct": false or prints no result fails the
// comparison, and so does a larger failed share of operations for the
// change than for the parent. benchpair exits 1 on a regression, an
// unmet claim or a failed run, and 2 on a usage error.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
	"text/tabwriter"

	"repro/internal/quartile"
)

// spec is the part of BENCHMARK.json benchpair reads.
type spec struct {
	Command    []string `json:"command"`
	RunSeconds float64  `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
}

// hasWorkload reports whether BENCHMARK.json declares the workload.
func (sp *spec) hasWorkload(name string) bool {
	for _, w := range sp.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// metricSpec is one end-to-end metric and its bound.
type metricSpec struct {
	Name   string  `json:"name"`
	Better string  `json:"better"` // "higher" or "lower"
	Bound  float64 `json:"bound"`
}

// result is a run's result line.
type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// parseResult reads a run's result: the JSON object on the last
// non-empty line of its standard output.
func parseResult(stdout []byte) (result, error) {
	out := strings.TrimSpace(string(stdout))
	last := out[strings.LastIndexByte(out, '\n')+1:]
	var r result
	if err := json.Unmarshal([]byte(last), &r); err != nil {
		return r, fmt.Errorf("no result line: %w", err)
	}
	if r.Metrics == nil {
		return r, errors.New("no result line: the last line has no metrics")
	}
	return r, nil
}

// summary is the median and quartiles of one side's runs.
type summary struct{ q1, median, q3 float64 }

// summarize returns the quartiles of xs.
func summarize(xs []float64) summary {
	q1, median, q3 := quartile.Of(xs)
	return summary{q1, median, q3}
}

// relative returns (x-ref)/|ref|, infinite when ref is 0 and x is not.
func relative(x, ref float64) float64 {
	if x == ref {
		return 0
	}
	if ref == 0 {
		return math.Copysign(math.Inf(1), x)
	}
	return (x - ref) / math.Abs(ref)
}

// verdict is the comparison of one metric over the pairs.
type verdict struct {
	base, change       summary
	pct                float64 // change of the median, in percent of the parent's
	wins, losses, ties int
	regression         bool
	unresolved         bool
	gain               bool
}

// judge compares one metric's values, base[i] and change[i] coming from
// pair i.
func judge(m metricSpec, base, change []float64) verdict {
	v := verdict{base: summarize(base), change: summarize(change)}
	// sign turns a difference into an improvement.
	sign := 1.0
	if m.Better == "lower" {
		sign = -1
	}
	for i := range base {
		switch d := sign * (change[i] - base[i]); {
		case d > 0:
			v.wins++
		case d < 0:
			v.losses++
		default:
			v.ties++
		}
	}
	rel := relative(v.change.median, v.base.median)
	v.pct = 100 * rel
	v.regression = -sign*rel > m.Bound
	worstChange, bestBase := slices.Min(change), slices.Max(base)
	if sign < 0 {
		worstChange, bestBase = slices.Max(change), slices.Min(base)
	}
	allBeat := sign*(worstChange-bestBase) > 0
	iqr := v.base.q3 - v.base.q1
	v.unresolved = iqr > m.Bound*math.Abs(v.base.median) && !allBeat
	v.gain = v.wins*10 >= 9*len(base) && sign*(v.change.median-v.base.median) > iqr
	return v
}

// failedShare returns the failed fraction of the runs' operations.
func failedShare(rs []result) float64 {
	attempted, failed := 0, 0
	for _, r := range rs {
		attempted += r.Attempted
		failed += r.Failed
	}
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run executes one comparison and returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchpair", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to compare (see BENCHMARK.json)")
	pairs := fs.Int("pairs", 10, "number of alternating pairs")
	seed := fs.Int64("seed", 1, "seed of the first pair; pair i runs seed+i")
	base := fs.String("base", "HEAD~1", "parent revision to compare the checkout against")
	claim := fs.String("claim", "", "end-to-end metric the change claims to improve")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "benchpair: "+format+"\n", a...)
		return 2
	}
	buf, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return usage("run from the repository root: %v", err)
	}
	var sp spec
	if err := json.Unmarshal(buf, &sp); err != nil {
		return usage("BENCHMARK.json: %v", err)
	}
	if !sp.hasWorkload(*workload) {
		return usage("unknown -workload %q", *workload)
	}
	if *claim != "" && !slices.ContainsFunc(sp.EndToEnd, func(m metricSpec) bool { return m.Name == *claim }) {
		return usage("-claim %q is not an end-to-end metric", *claim)
	}
	if *pairs < 1 || len(sp.Command) == 0 {
		return usage("want -pairs >= 1 and a command in BENCHMARK.json")
	}
	commit, err := gitOutput("rev-parse", "--short", *base)
	if err != nil {
		fmt.Fprintln(stderr, "benchpair:", err)
		return 1
	}
	parent, err := extract(*base)
	if err != nil {
		fmt.Fprintln(stderr, "benchpair:", err)
		return 1
	}
	defer os.RemoveAll(parent)

	// runs[0] are the parent's results, runs[1] the change's, from the
	// pairs where both sides printed one.
	dirs, names := [2]string{parent, "."}, [2]string{"parent", "change"}
	var runs [2][]result
	failed := false
	for i := 0; i < *pairs; i++ {
		s := *seed + int64(i)
		var got [2]result
		complete := true
		for j := range 2 {
			side := (i + j) % 2 // pair 0 runs the parent first, pair 1 the change
			r, err := runOnce(sp, dirs[side], *workload, s)
			if err != nil {
				complete = false
			} else if !r.Correct {
				err = errors.New(`the run reads "correct": false`)
			}
			if err != nil {
				fmt.Fprintf(stderr, "benchpair: %s run, seed %d: %v\n", names[side], s, err)
				failed = true
			}
			got[side] = r
		}
		if complete {
			runs[0], runs[1] = append(runs[0], got[0]), append(runs[1], got[1])
		}
		fmt.Fprintf(stderr, "benchpair: pair %d/%d (seed %d) done\n", i+1, *pairs, s)
	}
	if len(runs[0]) == 0 {
		fmt.Fprintln(stderr, "benchpair: no pair completed")
		return 1
	}

	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "%s, %d of %d pairs complete, seeds %d-%d, %gs runs\n",
		*workload, len(runs[0]), *pairs, *seed, *seed+int64(*pairs)-1, sp.RunSeconds)
	fmt.Fprintln(tw, "metric\tparent median [q1, q3]\tchange median [q1, q3]\tchange\tw/l/t\tverdict")
	regressed, claimMet := false, *claim == ""
	row := ""
	for _, m := range sp.EndToEnd {
		b, okb := values(runs[0], m.Name)
		c, okc := values(runs[1], m.Name)
		if !okb || !okc {
			fmt.Fprintf(tw, "%s\t-\t-\t-\t-\tnot reported\n", m.Name)
			continue
		}
		v := judge(m, b, c)
		var notes []string
		if v.regression {
			notes = append(notes, fmt.Sprintf("REGRESSION (bound %g%%)", 100*m.Bound))
			regressed = true
		}
		if v.unresolved {
			notes = append(notes, "unresolved (parent IQR wider than the bound)")
		}
		if m.Name == *claim {
			row = trajectoryRow(commit, *workload, m.Name, v)
			if v.gain {
				notes = append(notes, "claimed gain met")
				claimMet = true
			} else {
				notes = append(notes, "CLAIMED GAIN NOT MET")
			}
		}
		if len(notes) == 0 {
			notes = append(notes, "ok")
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%+.1f%%\t%d/%d/%d\t%s\n", m.Name, fmtSummary(v.base), fmtSummary(v.change),
			v.pct, v.wins, v.losses, v.ties, strings.Join(notes, "; "))
	}
	tw.Flush()
	fb, fc := failedShare(runs[0]), failedShare(runs[1])
	fmt.Fprintf(stdout, "failed share: parent %.4g%%, change %.4g%%\n", 100*fb, 100*fc)
	if fc > fb {
		fmt.Fprintln(stdout, "FAILED: the change fails a larger share of operations")
		failed = true
	}
	if row != "" {
		fmt.Fprintln(stdout, row)
	}
	if failed || regressed || !claimMet {
		return 1
	}
	return 0
}

// values returns metric name from every run, and whether every run
// reported it.
func values(rs []result, name string) ([]float64, bool) {
	xs := make([]float64, 0, len(rs))
	for _, r := range rs {
		m, ok := r.Metrics[name]
		if !ok {
			return nil, false
		}
		xs = append(xs, m.Value)
	}
	return xs, true
}

func fmtSummary(s summary) string {
	return fmt.Sprintf("%.4g [%.4g, %.4g]", s.median, s.q1, s.q3)
}

// trajectoryRow is the docs/TRAJECTORY.md row of one metric's verdict:
// the parent's commit, the workload and metric, both medians, the
// change of the median, the number of pairs and the change's wins.
func trajectoryRow(commit, workload, metric string, v verdict) string {
	pairs := v.wins + v.losses + v.ties
	return fmt.Sprintf("| `%s` | %s | %s | %.4g | %.4g | %+.1f%% | %d | %d/%d |",
		commit, workload, metric, v.base.median, v.change.median, v.pct, pairs, v.wins, pairs)
}

// runOnce runs the benchmark command once in dir and parses its result.
func runOnce(sp spec, dir, workload string, seed int64) (result, error) {
	args := append(slices.Clone(sp.Command[1:]), "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(sp.RunSeconds, 'g', -1, 64), "--trace", "0")
	cmd := exec.Command(sp.Command[0], args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	runErr := cmd.Run()
	r, err := parseResult(stdout.Bytes())
	if err != nil {
		return r, fmt.Errorf("%v (%v): %s", err, runErr, lastLines(stderr.String(), 5))
	}
	return r, nil
}

// lastLines returns the last n lines of s.
func lastLines(s string, n int) string {
	lines := strings.Split(strings.TrimSpace(s), "\n")
	return strings.Join(lines[max(0, len(lines)-n):], "\n")
}

// gitOutput runs git with args and returns its trimmed standard output.
func gitOutput(args ...string) (string, error) {
	var stderr bytes.Buffer
	cmd := exec.Command("git", args...)
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("git %s: %v: %s", strings.Join(args, " "), err, strings.TrimSpace(stderr.String()))
	}
	return strings.TrimSpace(string(out)), nil
}

// extract writes the tree of revision rev into a new temporary
// directory, through git archive and tar, and returns its path.
func extract(rev string) (string, error) {
	dir, err := os.MkdirTemp("", "benchpair-")
	if err != nil {
		return "", err
	}
	archive := exec.Command("git", "archive", "--format=tar", rev)
	untar := exec.Command("tar", "-x", "-C", dir)
	var stderr bytes.Buffer
	archive.Stderr, untar.Stderr = &stderr, &stderr
	if untar.Stdin, err = archive.StdoutPipe(); err == nil {
		if err = untar.Start(); err == nil {
			err = archive.Run()
			if werr := untar.Wait(); err == nil {
				err = werr
			}
		}
	}
	if err != nil {
		os.RemoveAll(dir)
		return "", fmt.Errorf("extracting %s: %v: %s", rev, err, strings.TrimSpace(stderr.String()))
	}
	return dir, nil
}
