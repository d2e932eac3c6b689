package eval

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/core"
	"repro/internal/cube"
	"repro/internal/expert"
	"repro/internal/fanout"
	"repro/internal/trace"
)

// Result holds the four evaluation criteria for one
// (workload, method, threshold) cell.
type Result struct {
	Workload  string
	Method    string
	Threshold float64

	// PctSize is the reduced file size as a percentage of the full file
	// (criterion 1).
	PctSize float64
	// Degree is the degree of matching: matches / possible matches
	// (criterion 2).
	Degree float64
	// ApproxDist is the 90th-percentile absolute timestamp error of the
	// reconstructed trace in time units (criterion 3).
	ApproxDist trace.Time
	// Retained reports whether the reconstructed trace kept the full
	// trace's performance trends (criterion 4).
	Retained bool
	// Issues explains a false Retained.
	Issues []string

	// FullBytes and ReducedBytes are the raw encoded sizes.
	FullBytes, ReducedBytes int64
	// StoredSegments and TotalSegments describe the reduction shape.
	StoredSegments, TotalSegments int
	// Diag is the reduction's diagnosis (for chart rendering), computed
	// directly from the reduced form; it equals the diagnosis of the
	// reconstructed trace.
	Diag *expert.Diagnosis
}

// Evaluate runs the complete pipeline for one cell: reduce the full trace
// with the policy, measure sizes and matching, then score timestamp
// error, re-diagnose, and judge trend retention — all directly from the
// reduced form, never reconstructing the approximate trace. It scores as
// EvaluateReduced does, criteria running concurrently.
func Evaluate(full *trace.Trace, fullDiag *expert.Diagnosis, method string, threshold float64) (*Result, error) {
	p, err := core.NewMethod(method, threshold)
	if err != nil {
		return nil, err
	}
	red, err := core.Reduce(full, p)
	if err != nil {
		return nil, fmt.Errorf("eval: reducing %s with %s: %w", full.Name, method, err)
	}
	res, err := EvaluateReduced(full, fullDiag, red)
	if err != nil {
		return nil, err
	}
	res.Threshold = threshold
	return res, nil
}

// EvaluateReduced scores an already-computed reduction against the full
// trace and its diagnosis, using the direct-from-reduced engine
// (expert.AnalyzeReduced, core.ApproximationDistanceReduced): scoring
// cost is proportional to representatives + execution records +
// communication events, not the full event count. The full trace's size
// comes from fullDiag.FullBytes, which expert.Analyze records; only a
// diagnosis without it (one Analyze did not make) has the full trace
// walked for its size. Its criteria are independent, so they run at
// once: the approximation distance on a second goroutine, joined before
// it returns, and the reduced form's diagnosis, its comparison and the
// reduced size on the caller's. full, fullDiag and red must not be
// mutated during the call. A failed distance is reported ahead of a
// failed diagnosis, whichever fails first. Result.Threshold is left
// zero; Evaluate fills it for threshold-study cells.
func EvaluateReduced(full *trace.Trace, fullDiag *expert.Diagnosis, red *core.Reduced) (*Result, error) {
	var wg sync.WaitGroup
	var dist trace.Time
	var distErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		dist, distErr = core.ApproximationDistanceReduced(full, red, 0.9)
	}()
	fullBytes := fullDiag.FullBytes
	if fullBytes == 0 {
		fullBytes = trace.EncodedSize(full)
	}
	diag, err := expert.AnalyzeReduced(red)
	var verdict cube.Verdict
	var reducedBytes int64
	if err == nil {
		verdict = cube.Compare(fullDiag, diag)
		reducedBytes = core.EncodedReducedSize(red)
	}
	wg.Wait()
	if distErr != nil {
		return nil, fmt.Errorf("eval: approximation distance %s/%s: %w", full.Name, red.Method, distErr)
	}
	if err != nil {
		return nil, fmt.Errorf("eval: analyzing reduced %s/%s: %w", full.Name, red.Method, err)
	}
	sizes := core.SizeReport{FullBytes: fullBytes, ReducedBytes: reducedBytes}
	return &Result{
		Workload:       full.Name,
		Method:         red.Method,
		PctSize:        sizes.Percent(),
		Degree:         red.DegreeOfMatching(),
		ApproxDist:     dist,
		Retained:       verdict.Retained,
		Issues:         verdict.Issues,
		FullBytes:      sizes.FullBytes,
		ReducedBytes:   sizes.ReducedBytes,
		StoredSegments: red.StoredSegments(),
		TotalSegments:  red.TotalSegments,
		Diag:           diag,
	}, nil
}

// Runner caches workload traces, full-trace diagnoses (which carry the
// full traces' encoded sizes), and per-cell results across evaluation
// cells, and runs grids of cells on a bounded worker pool. Every cell is computed at most once per
// Runner, so overlapping grids (the comparative study, threshold sweeps,
// retention tables) share work.
type Runner struct {
	traces *traceCache

	// workers bounds the grid pool; 0 means GOMAXPROCS.
	workers int

	mu    sync.Mutex
	diags map[string]*expert.Diagnosis
	cells map[Cell]*cellEntry
}

// cellEntry memoizes one evaluated cell; once serializes concurrent
// requests for the same cell.
type cellEntry struct {
	once sync.Once
	res  *Result
	err  error
}

// NewRunner returns an empty runner.
func NewRunner() *Runner {
	return &Runner{
		traces: newTraceCache(),
		diags:  map[string]*expert.Diagnosis{},
		cells:  map[Cell]*cellEntry{},
	}
}

// SetWorkers bounds the number of concurrent cell evaluations in RunGrid;
// n <= 0 restores the default (GOMAXPROCS).
func (r *Runner) SetWorkers(n int) {
	r.mu.Lock()
	r.workers = n
	r.mu.Unlock()
}

// ResetCells drops the memoized cell results while keeping the (far more
// expensive) traces and diagnoses. Benchmarks that time repeated
// grid evaluations call it between iterations so they measure evaluation
// work, not cache hits.
func (r *Runner) ResetCells() {
	r.mu.Lock()
	r.cells = map[Cell]*cellEntry{}
	r.mu.Unlock()
}

// Trace returns the (cached) full trace of the named workload.
func (r *Runner) Trace(workload string) (*trace.Trace, error) {
	return r.traces.get(workload)
}

// Diagnosis returns the (cached) EXPERT diagnosis of the workload's full
// trace.
func (r *Runner) Diagnosis(workload string) (*expert.Diagnosis, error) {
	r.mu.Lock()
	d, ok := r.diags[workload]
	r.mu.Unlock()
	if ok {
		return d, nil
	}
	t, err := r.Trace(workload)
	if err != nil {
		return nil, err
	}
	d, err = expert.Analyze(t)
	if err != nil {
		return nil, fmt.Errorf("eval: analyzing full trace of %s: %w", workload, err)
	}
	r.mu.Lock()
	r.diags[workload] = d
	r.mu.Unlock()
	return d, nil
}

// Cell identifies one evaluation in a grid.
type Cell struct {
	Workload  string
	Method    string
	Threshold float64
}

// DefaultCell returns the cell for a method at its paper-default
// threshold.
func DefaultCell(workload, method string) Cell {
	return Cell{Workload: workload, Method: method, Threshold: core.DefaultThresholds[method]}
}

// Run evaluates one cell, memoizing the result: repeated requests for the
// same cell (the full study's grids overlap heavily) cost one map lookup.
func (r *Runner) Run(c Cell) (*Result, error) {
	r.mu.Lock()
	e, ok := r.cells[c]
	if !ok {
		e = &cellEntry{}
		r.cells[c] = e
	}
	r.mu.Unlock()
	e.once.Do(func() { e.res, e.err = r.evaluate(c) })
	return e.res, e.err
}

// evaluate computes one cell from the caches: reduce, then score directly
// from the reduced form.
func (r *Runner) evaluate(c Cell) (*Result, error) {
	full, err := r.Trace(c.Workload)
	if err != nil {
		return nil, err
	}
	fullDiag, err := r.Diagnosis(c.Workload)
	if err != nil {
		return nil, err
	}
	return Evaluate(full, fullDiag, c.Method, c.Threshold)
}

// RunGrid evaluates the given cells on a bounded worker pool (SetWorkers,
// default GOMAXPROCS) and returns results in cell order. Duplicate and
// previously evaluated cells are served from the cache; the first error
// in cell order aborts the grid.
func (r *Runner) RunGrid(cells []Cell) ([]*Result, error) {
	// Pre-generate traces sequentially so the workers don't all stampede
	// into the same cache entry (sync.Once already serializes, but this
	// keeps memory growth predictable).
	seen := map[string]bool{}
	for _, c := range cells {
		if !seen[c.Workload] {
			seen[c.Workload] = true
			if _, err := r.Diagnosis(c.Workload); err != nil {
				return nil, err
			}
		}
	}
	// Dedupe into a work list for the pool.
	uniq := make([]Cell, 0, len(cells))
	inList := map[Cell]bool{}
	for _, c := range cells {
		if !inList[c] {
			inList[c] = true
			uniq = append(uniq, c)
		}
	}
	r.mu.Lock()
	workers := r.workers
	r.mu.Unlock()
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	fanout.Run(workers, len(uniq), func(i int) error {
		r.Run(uniq[i]) // memoized; errors resurface below
		return nil
	})
	results := make([]*Result, len(cells))
	for i, c := range cells {
		res, err := r.Run(c)
		if err != nil {
			return nil, err
		}
		results[i] = res
	}
	return results, nil
}

// GridDefault builds the comparative-study grid: every workload × every
// method at default thresholds.
func GridDefault(workloads, methods []string) []Cell {
	var cells []Cell
	for _, w := range workloads {
		for _, m := range methods {
			cells = append(cells, DefaultCell(w, m))
		}
	}
	return cells
}

// GridSweep builds the threshold-study grid for one method: every
// workload × every threshold in the method's sweep.
func GridSweep(workloads []string, method string) []Cell {
	var cells []Cell
	for _, w := range workloads {
		for _, t := range core.ThresholdSweep(method) {
			cells = append(cells, Cell{Workload: w, Method: method, Threshold: t})
		}
	}
	return cells
}
