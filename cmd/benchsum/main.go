// Command benchsum summarises repeated benchmark runs: for every
// benchmark and unit in `go test -bench` output it prints the number of
// runs, the median, the quartiles and the interquartile range as a share
// of the median. Pipe the output of -count N runs into it:
//
//	go test -run '^$' -bench EncodedSize -count 10 ./internal/trace | go run ./cmd/benchsum
//
// Each value-unit pair of a result line is a sample, so ns/op, B/op,
// allocs/op and custom metrics such as ns/event each get a row. A name
// keeps its -cpu suffix, so runs at different GOMAXPROCS stay apart, and
// rows are grouped under the "pkg:" line that preceded them. Quartiles
// interpolate between the closest ranks, as cmd/benchpair's do. benchsum
// exits 1 when the input holds no result line.
package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"text/tabwriter"

	"repro/internal/quartile"
)

func main() {
	if err := summarize(os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchsum:", err)
		os.Exit(1)
	}
}

// series holds one benchmark's samples in one unit.
type series struct {
	pkg, name, unit string
	samples         []float64
}

// parse collects the samples of every result line in first-seen order.
// A result line is a Benchmark name, an iteration count, then value-unit
// pairs; any other line is skipped.
func parse(r io.Reader) ([]*series, error) {
	var all []*series
	byKey := map[[3]string]*series{}
	pkg := ""
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if p, ok := strings.CutPrefix(line, "pkg: "); ok {
			pkg = strings.TrimSpace(p)
			continue
		}
		f := strings.Fields(line)
		if len(f) < 4 || len(f)%2 != 0 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		if _, err := strconv.ParseUint(f[1], 10, 64); err != nil {
			continue
		}
		vals := make([]float64, 0, len(f)/2-1)
		for i := 2; i < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				break
			}
			vals = append(vals, v)
		}
		if len(vals) != len(f)/2-1 {
			continue
		}
		for i, v := range vals {
			key := [3]string{pkg, f[0], f[3+2*i]}
			s := byKey[key]
			if s == nil {
				s = &series{pkg: key[0], name: key[1], unit: key[2]}
				byKey[key] = s
				all = append(all, s)
			}
			s.samples = append(s.samples, v)
		}
	}
	return all, sc.Err()
}

// summarize reads benchmark output from r and writes one row per
// benchmark and unit to w.
func summarize(r io.Reader, w io.Writer) error {
	all, err := parse(r)
	if err != nil {
		return err
	}
	if len(all) == 0 {
		return fmt.Errorf("no benchmark result lines in the input")
	}
	tw := tabwriter.NewWriter(w, 0, 8, 2, ' ', 0)
	pkg := ""
	for i, s := range all {
		if i == 0 || s.pkg != pkg {
			pkg = s.pkg
			if i > 0 {
				fmt.Fprintln(tw)
			}
			if pkg != "" {
				fmt.Fprintf(tw, "pkg: %s\n", pkg)
			}
			fmt.Fprintln(tw, "benchmark\tunit\truns\tmedian\tq1\tq3\tiqr/median")
		}
		q1, med, q3 := quartile.Of(s.samples)
		spread := "-"
		if med != 0 {
			spread = fmt.Sprintf("%.1f%%", 100*(q3-q1)/med)
		}
		fmt.Fprintf(tw, "%s\t%s\t%d\t%s\t%s\t%s\t%s\n", s.name, s.unit, len(s.samples),
			num(med), num(q1), num(q3), spread)
	}
	return tw.Flush()
}

// num formats a value with four significant digits, or as an integer
// once it has more than four.
func num(v float64) string {
	if v >= 1e4 || v <= -1e4 {
		return strconv.FormatFloat(v, 'f', 0, 64)
	}
	return strconv.FormatFloat(v, 'g', 4, 64)
}
