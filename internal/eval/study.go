package eval

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/cube"
	"repro/internal/expert"
)

// StudyCells returns the deduplicated union of every cell the full study
// renders: the comparative grid (all workloads × methods at default
// thresholds) plus every method's threshold sweep over all workloads —
// the superset behind Figures 5–19 and the 18 retention tables. Feeding
// it to Runner.RunGrid evaluates the entire 18-workload × 9-method ×
// threshold-sweep study through one worker pool; the per-figure grids
// then render from the runner's cell cache.
func StudyCells() []Cell {
	var cells []Cell
	cells = append(cells, GridDefault(AllNames(), core.MethodNames)...)
	for _, m := range core.MethodNames {
		cells = append(cells, GridSweep(AllNames(), m)...)
	}
	uniq := make([]Cell, 0, len(cells))
	seen := map[Cell]bool{}
	for _, c := range cells {
		if !seen[c] {
			seen[c] = true
			uniq = append(uniq, c)
		}
	}
	return uniq
}

// Index organizes grid results for table rendering.
type Index struct {
	m map[Cell]*Result
}

// NewIndex indexes results by their cell.
func NewIndex(results []*Result) *Index {
	ix := &Index{m: map[Cell]*Result{}}
	for _, r := range results {
		ix.m[Cell{Workload: r.Workload, Method: r.Method, Threshold: r.Threshold}] = r
	}
	return ix
}

// Get returns the result for a cell, or nil.
func (ix *Index) Get(c Cell) *Result { return ix.m[c] }

// fmtThreshold prints thresholds compactly (10^k for the absDiff sweep,
// integers for iter_k).
func fmtThreshold(method string, t float64) string {
	switch method {
	case "absDiff":
		return fmt.Sprintf("%.0e", t)
	case "iter_k":
		return fmt.Sprintf("%.0f", t)
	case "iter_avg":
		return "-"
	default:
		return fmt.Sprintf("%.1f", t)
	}
}

// FormatSizeAndMatching renders the paper's Figure 5: one table of
// reduced-size percentages and one of degree-of-matching scores, rows =
// workloads, columns = methods at default thresholds.
func FormatSizeAndMatching(ix *Index, workloads, methods []string) string {
	var b strings.Builder
	b.WriteString("Figure 5a — reduced trace size, % of full trace file\n")
	writeGridTable(&b, ix, workloads, methods, func(r *Result) string {
		return fmt.Sprintf("%6.2f", r.PctSize)
	})
	b.WriteString("\nFigure 5b — degree of matching (matches / possible matches)\n")
	writeGridTable(&b, ix, workloads, methods, func(r *Result) string {
		return fmt.Sprintf("%6.3f", r.Degree)
	})
	return b.String()
}

// FormatApproxDistance renders the paper's Figure 6: the 90th-percentile
// absolute timestamp error per workload and method, in time units.
func FormatApproxDistance(ix *Index, workloads, methods []string) string {
	var b strings.Builder
	b.WriteString("Figure 6 — approximation distance (90th pct |Δt|, time units)\n")
	writeGridTable(&b, ix, workloads, methods, func(r *Result) string {
		return fmt.Sprintf("%6d", r.ApproxDist)
	})
	return b.String()
}

// FormatRetention renders a retained/lost grid for the comparative study
// (the basis of the paper's §5.2.3 per-method counts).
func FormatRetention(ix *Index, workloads, methods []string) string {
	var b strings.Builder
	b.WriteString("Retention of performance trends at default thresholds (Y = retained)\n")
	writeGridTable(&b, ix, workloads, methods, func(r *Result) string {
		if r.Retained {
			return "     Y"
		}
		return "     n"
	})
	return b.String()
}

func writeGridTable(b *strings.Builder, ix *Index, workloads, methods []string, cell func(*Result) string) {
	fmt.Fprintf(b, "%-26s", "workload")
	for _, m := range methods {
		fmt.Fprintf(b, " %9s", m)
	}
	b.WriteString("\n")
	for _, w := range workloads {
		fmt.Fprintf(b, "%-26s", w)
		for _, m := range methods {
			r := ix.Get(DefaultCell(w, m))
			if r == nil {
				fmt.Fprintf(b, " %9s", "-")
				continue
			}
			fmt.Fprintf(b, " %9s", strings.TrimSpace(cell(r)))
		}
		b.WriteString("\n")
	}
}

// FormatSummary renders the §5.2.3 ranking: per method, how many of the
// workloads retain correct performance trends at default thresholds.
func FormatSummary(ix *Index, workloads, methods []string) string {
	type score struct {
		method string
		n      int
	}
	scores := make([]score, 0, len(methods))
	for _, m := range methods {
		s := score{method: m}
		for _, w := range workloads {
			if r := ix.Get(DefaultCell(w, m)); r != nil && r.Retained {
				s.n++
			}
		}
		scores = append(scores, s)
	}
	sort.SliceStable(scores, func(i, j int) bool { return scores[i].n > scores[j].n })
	var b strings.Builder
	fmt.Fprintf(&b, "Methods ranked by correctly diagnosed traces (of %d):\n", len(workloads))
	for _, s := range scores {
		fmt.Fprintf(&b, "  %-10s %2d/%d\n", s.method, s.n, len(workloads))
	}
	return b.String()
}

// FormatTrendChart renders the paper's Figure 7/8 layout for one
// workload: the full trace's chart rows first, then one row set per
// method's reconstruction, over the full trace's significant cells.
func FormatTrendChart(r *Runner, ix *Index, workload string, methods []string) (string, error) {
	fullDiag, err := r.Diagnosis(workload)
	if err != nil {
		return "", err
	}
	keys := cube.SignificantKeys(fullDiag, cube.DefaultCompareOptions().SignificanceFrac)
	if len(keys) > 4 {
		keys = keys[:4]
	}
	labels := []string{"full"}
	diags := []*expert.Diagnosis{fullDiag}
	for _, m := range methods {
		labels = append(labels, m)
		res := ix.Get(DefaultCell(workload, m))
		if res == nil {
			diags = append(diags, nil)
			continue
		}
		diags = append(diags, res.Diag)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "KOJAK-style performance trends for %s (glyph scale: blank=0 .. @=max, '-'=negative)\n", workload)
	b.WriteString(cube.SideBySide(labels, diags, keys))
	return b.String(), nil
}

// FormatThresholdSweep renders one of the paper's Figures 9–19: for one
// method, per workload, the reduced size percentage and approximation
// distance at each threshold of the method's sweep.
func FormatThresholdSweep(ix *Index, method string, workloads []string) string {
	thresholds := core.ThresholdSweep(method)
	var b strings.Builder
	fmt.Fprintf(&b, "Threshold sweep for %s\n", method)
	fmt.Fprintf(&b, "%-26s %10s", "workload", "criterion")
	for _, t := range thresholds {
		fmt.Fprintf(&b, " %8s", fmtThreshold(method, t))
	}
	b.WriteString("\n")
	for _, w := range workloads {
		fmt.Fprintf(&b, "%-26s %10s", w, "%size")
		for _, t := range thresholds {
			r := ix.Get(Cell{Workload: w, Method: method, Threshold: t})
			if r == nil {
				fmt.Fprintf(&b, " %8s", "-")
				continue
			}
			fmt.Fprintf(&b, " %8.2f", r.PctSize)
		}
		b.WriteString("\n")
		fmt.Fprintf(&b, "%-26s %10s", "", "apxdist")
		for _, t := range thresholds {
			r := ix.Get(Cell{Workload: w, Method: method, Threshold: t})
			if r == nil {
				fmt.Fprintf(&b, " %8s", "-")
				continue
			}
			fmt.Fprintf(&b, " %8d", r.ApproxDist)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// FormatRetentionTable renders one of the paper's appendix Tables 1–18:
// for one workload, retained/lost across every method and threshold.
func FormatRetentionTable(ix *Index, workload string, methods []string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Retention of performance trends for %s (Y = retained)\n", workload)
	for _, m := range methods {
		thresholds := core.ThresholdSweep(m)
		if thresholds == nil { // iter_avg
			thresholds = []float64{0}
		}
		fmt.Fprintf(&b, "  %-10s", m)
		for _, t := range thresholds {
			r := ix.Get(Cell{Workload: workload, Method: m, Threshold: t})
			mark := "?"
			if r != nil {
				if r.Retained {
					mark = "Y"
				} else {
					mark = "n"
				}
			}
			fmt.Fprintf(&b, " %6s:%s", fmtThreshold(m, t), mark)
		}
		b.WriteString("\n")
	}
	return b.String()
}
