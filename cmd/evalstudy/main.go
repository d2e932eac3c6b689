// Command evalstudy regenerates the paper's evaluation: Figure 5 (sizes
// and degree of matching), Figure 6 (approximation distance), Figures 7-8
// (KOJAK-style trend charts), Figures 9-16 (per-method threshold sweeps
// over the 16 benchmarks), Figures 17-19 (threshold sweeps over the two
// Sweep3D runs), Tables 1-18 (retention of performance trends per
// workload), and the §5.2.3 method ranking.
//
// Every cell is scored directly from its reduced form (no trace
// reconstruction) and the full 20-workloads × 9-methods × threshold-sweep
// grid runs through one bounded worker pool; overlapping figures and
// tables share cell results through the runner's cache.
//
// Usage:
//
//	evalstudy -summary            # comparative study + ranking
//	evalstudy -fig 5              # one figure
//	evalstudy -table 17           # one appendix table
//	evalstudy -all                # everything (EXPERIMENTS.md input)
//	evalstudy -all -workers 4     # bound the evaluation pool
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/profiling"
)

// figureMethod maps threshold-sweep figure numbers to methods (paper
// Figures 9-16).
var figureMethod = map[int]string{
	9: "relDiff", 10: "absDiff", 11: "manhattan", 12: "euclidean",
	13: "chebyshev", 14: "iter_k", 15: "avgWave", 16: "haarWave",
}

// sweepFigureMethods maps the Sweep3D sweep figures 17-19 to their method
// groups.
var sweepFigureMethods = map[int][]string{
	17: {"relDiff", "absDiff", "manhattan"},
	18: {"euclidean", "chebyshev", "iter_k"},
	19: {"avgWave", "haarWave"},
}

// tableWorkloads lists the appendix tables in the paper's order —
// tables 1-18 — extended with tables 19-20 for the scenario-diversity
// workloads.
var tableWorkloads = []string{
	"dyn_load_balance", "early_gather", "imbalance_at_mpi_barrier",
	"late_broadcast", "late_receiver", "late_sender",
	"Nto1_32", "NtoN_32", "1toN_32", "1to1r_32", "1to1s_32",
	"Nto1_1024", "NtoN_1024", "1toN_1024", "1to1r_1024", "1to1s_1024",
	"sweep3d_8p", "sweep3d_32p",
	"halo_jitter", "bursty_io",
}

func main() {
	fig := flag.Int("fig", 0, "regenerate one figure (5-19)")
	table := flag.Int("table", 0, "regenerate one appendix table (1-20)")
	summary := flag.Bool("summary", false, "comparative study and method ranking")
	all := flag.Bool("all", false, "regenerate every figure and table")
	workers := flag.Int("workers", 0, "evaluation pool size (0 = all cores)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the study to `file`")
	memprofile := flag.String("memprofile", "", "write a heap profile taken after the study to `file`")
	flag.Parse()

	stopProf, err := profiling.Start(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "evalstudy:", err)
		os.Exit(1)
	}
	r := eval.NewRunner()
	r.SetWorkers(*workers)
	runErr := run(r, *fig, *table, *summary, *all)
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "evalstudy:", runErr)
	}
	if err := stopProf(); err != nil {
		fmt.Fprintln(os.Stderr, "evalstudy:", err)
		os.Exit(1)
	}
	if runErr != nil {
		os.Exit(1)
	}
}

func run(r *eval.Runner, fig, table int, summary, all bool) error {
	switch {
	case all:
		// Evaluate the entire study grid through one worker pool up
		// front; every figure and table below renders from the runner's
		// cell cache.
		if _, err := r.RunGrid(eval.StudyCells()); err != nil {
			return err
		}
		if err := comparative(r, true); err != nil {
			return err
		}
		for f := 9; f <= 19; f++ {
			if err := sweepFigure(r, f); err != nil {
				return err
			}
			fmt.Println()
		}
		for tn := 1; tn <= len(tableWorkloads); tn++ {
			if err := retentionTable(r, tn); err != nil {
				return err
			}
			fmt.Println()
		}
		return nil
	case summary:
		return comparative(r, false)
	case fig >= 5 && fig <= 8:
		return comparativeFigure(r, fig)
	case fig >= 9 && fig <= 19:
		return sweepFigure(r, fig)
	case table >= 1 && table <= len(tableWorkloads):
		return retentionTable(r, table)
	default:
		return fmt.Errorf("nothing to do: pass -summary, -all, -fig 5..19 or -table 1..%d", len(tableWorkloads))
	}
}

// defaultGrid runs the comparative grid (all workloads × methods at
// default thresholds) once.
func defaultGrid(r *eval.Runner) (*eval.Index, error) {
	results, err := r.RunGrid(eval.GridDefault(eval.AllNames(), core.MethodNames))
	if err != nil {
		return nil, err
	}
	return eval.NewIndex(results), nil
}

func comparative(r *eval.Runner, withFigures bool) error {
	ix, err := defaultGrid(r)
	if err != nil {
		return err
	}
	if withFigures {
		fmt.Print(eval.FormatSizeAndMatching(ix, eval.AllNames(), core.MethodNames))
		fmt.Println()
		fmt.Print(eval.FormatApproxDistance(ix, eval.AllNames(), core.MethodNames))
		fmt.Println()
		for _, w := range []string{"dyn_load_balance", "1to1r_1024"} {
			chart, err := eval.FormatTrendChart(r, ix, w, core.MethodNames)
			if err != nil {
				return err
			}
			fmt.Print(chart)
			fmt.Println()
		}
	}
	fmt.Print(eval.FormatRetention(ix, eval.AllNames(), core.MethodNames))
	fmt.Println()
	fmt.Print(eval.FormatSummary(ix, eval.AllNames(), core.MethodNames))
	return nil
}

func comparativeFigure(r *eval.Runner, fig int) error {
	ix, err := defaultGrid(r)
	if err != nil {
		return err
	}
	switch fig {
	case 5:
		fmt.Print(eval.FormatSizeAndMatching(ix, eval.AllNames(), core.MethodNames))
	case 6:
		fmt.Print(eval.FormatApproxDistance(ix, eval.AllNames(), core.MethodNames))
	case 7:
		chart, err := eval.FormatTrendChart(r, ix, "dyn_load_balance", core.MethodNames)
		if err != nil {
			return err
		}
		fmt.Printf("Figure 7 — performance trends, dyn_load_balance\n%s", chart)
	case 8:
		chart, err := eval.FormatTrendChart(r, ix, "1to1r_1024", core.MethodNames)
		if err != nil {
			return err
		}
		fmt.Printf("Figure 8 — performance trends, 1to1r_1024\n%s", chart)
	}
	return nil
}

func sweepFigure(r *eval.Runner, fig int) error {
	if method, ok := figureMethod[fig]; ok {
		results, err := r.RunGrid(eval.GridSweep(eval.BenchmarkNames(), method))
		if err != nil {
			return err
		}
		fmt.Printf("Figure %d — ", fig)
		fmt.Print(eval.FormatThresholdSweep(eval.NewIndex(results), method, eval.BenchmarkNames()))
		return nil
	}
	methods, ok := sweepFigureMethods[fig]
	if !ok {
		return fmt.Errorf("unknown figure %d", fig)
	}
	fmt.Printf("Figure %d — Sweep3D threshold sweeps\n", fig)
	for _, method := range methods {
		results, err := r.RunGrid(eval.GridSweep(eval.ApplicationNames(), method))
		if err != nil {
			return err
		}
		fmt.Print(eval.FormatThresholdSweep(eval.NewIndex(results), method, eval.ApplicationNames()))
	}
	return nil
}

func retentionTable(r *eval.Runner, tn int) error {
	workload := tableWorkloads[tn-1]
	var cells []eval.Cell
	for _, m := range core.MethodNames {
		if m == "iter_avg" {
			cells = append(cells, eval.Cell{Workload: workload, Method: m, Threshold: 0})
			continue
		}
		cells = append(cells, eval.GridSweep([]string{workload}, m)...)
	}
	results, err := r.RunGrid(cells)
	if err != nil {
		return err
	}
	fmt.Printf("Table %d — ", tn)
	fmt.Print(eval.FormatRetentionTable(eval.NewIndex(results), workload, core.MethodNames))
	return nil
}
