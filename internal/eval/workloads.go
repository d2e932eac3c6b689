// Package eval assembles the paper's evaluation: the catalog of 20
// workload traces (five regular benchmarks, ten interference benchmarks,
// dyn_load_balance, two scenario-diversity benchmarks — jittered halo
// exchange and bursty I/O — and two Sweep3D runs), the per-(workload,
// method, threshold) evaluation pipeline computing all four criteria,
// and the threshold/comparative studies behind every figure and table.
package eval

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"repro/internal/ats"
	"repro/internal/mpisim"
	"repro/internal/sweep3d"
	"repro/internal/trace"
)

// Workload names one of the evaluation's traces and knows how to build
// it.
type Workload struct {
	// Name is the trace name ("late_sender", "1to1r_1024", ...).
	Name string
	// Group is "regular", "interference", "dynamic", or "application".
	Group string
	// Build constructs the program and cost model.
	Build func() (*mpisim.Program, mpisim.Config, error)
}

// fromBenchmark adapts an ats constructor into a Workload named name;
// nothing is built until Build runs.
func fromBenchmark(name, group string, mk func() *ats.Benchmark) Workload {
	return Workload{Name: name, Group: group, Build: func() (*mpisim.Program, mpisim.Config, error) {
		b := mk()
		return b.Program, b.Config, nil
	}}
}

// fromSweep3D adapts a Sweep3D input into a Workload named name.
func fromSweep3D(name string, in sweep3d.Config) Workload {
	return Workload{Name: name, Group: "application", Build: func() (*mpisim.Program, mpisim.Config, error) {
		p, err := sweep3d.Build(name, in)
		return p, mpisim.DefaultConfig(), err
	}}
}

// Catalog returns the study's 20 workloads in presentation order: the
// paper's 18, then the two scenario-diversity extensions before the
// Sweep3D applications.
func Catalog() []Workload { return slices.Clone(catalog) }

// catalog is the list Catalog copies, made once. Each entry's name is
// declared here, so neither listing the catalog nor looking a name up
// builds a program.
var catalog = func() []Workload {
	var ws []Workload
	reg := ats.DefaultParams()
	for _, b := range []struct {
		name string
		mk   func(ats.Params) *ats.Benchmark
	}{
		{"early_gather", ats.EarlyGather},
		{"imbalance_at_mpi_barrier", ats.ImbalanceAtBarrier},
		{"late_receiver", ats.LateReceiver},
		{"late_sender", ats.LateSender},
		{"late_broadcast", ats.LateBroadcast},
	} {
		ws = append(ws, fromBenchmark(b.name, "regular", func() *ats.Benchmark { return b.mk(reg) }))
	}
	intf := ats.InterferenceParams()
	for _, sim := range []int{32, 1024} {
		for _, pat := range []ats.InterferencePattern{
			ats.PatternNto1, ats.PatternNtoN, ats.Pattern1toN, ats.Pattern1to1r, ats.Pattern1to1s,
		} {
			ws = append(ws, fromBenchmark(fmt.Sprintf("%s_%d", pat, sim), "interference",
				func() *ats.Benchmark { return ats.Interference(intf, pat, sim) }))
		}
	}
	dyn := ats.DefaultParams()
	dyn.Iterations = 64
	scen := ats.DefaultParams()
	return append(ws,
		fromBenchmark("dyn_load_balance", "dynamic", func() *ats.Benchmark { return ats.DynLoadBalance(dyn) }),
		fromBenchmark("halo_jitter", "scenario", func() *ats.Benchmark { return ats.HaloJitter(scen) }),
		fromBenchmark("bursty_io", "scenario", func() *ats.Benchmark { return ats.BurstyIO(scen) }),
		fromSweep3D("sweep3d_8p", sweep3d.Input50()),
		fromSweep3D("sweep3d_32p", sweep3d.Input150()),
	)
}()

// BenchmarkNames returns the 18 non-application workload names (the
// paper's 16 plus the two scenario extensions — the set the threshold
// sweeps of Figures 9–16 cover).
func BenchmarkNames() []string {
	var names []string
	for _, w := range catalog {
		if w.Group != "application" {
			names = append(names, w.Name)
		}
	}
	return names
}

// ApplicationNames returns the two Sweep3D workload names.
func ApplicationNames() []string { return []string{"sweep3d_8p", "sweep3d_32p"} }

// AllNames returns all 20 workload names in catalog order.
func AllNames() []string {
	var names []string
	for _, w := range catalog {
		names = append(names, w.Name)
	}
	return names
}

// Lookup finds a workload by name.
func Lookup(name string) (Workload, error) {
	for _, w := range catalog {
		if w.Name == name {
			return w, nil
		}
	}
	known := AllNames()
	sort.Strings(known)
	return Workload{}, fmt.Errorf("eval: unknown workload %q (known: %v)", name, known)
}

// Generate builds and simulates the workload, producing its full trace.
func (w Workload) Generate() (*trace.Trace, error) {
	prog, cfg, err := w.Build()
	if err != nil {
		return nil, fmt.Errorf("eval: building %s: %w", w.Name, err)
	}
	t, err := mpisim.Run(prog, cfg)
	if err != nil {
		return nil, fmt.Errorf("eval: simulating %s: %w", w.Name, err)
	}
	return t, nil
}

// traceCache memoizes generated traces; the studies reuse each trace
// across dozens of (method, threshold) cells.
type traceCache struct {
	mu sync.Mutex
	m  map[string]*cacheEntry
}

type cacheEntry struct {
	once sync.Once
	t    *trace.Trace
	err  error
}

func newTraceCache() *traceCache { return &traceCache{m: map[string]*cacheEntry{}} }

func (c *traceCache) get(name string) (*trace.Trace, error) {
	c.mu.Lock()
	e, ok := c.m[name]
	if !ok {
		e = &cacheEntry{}
		c.m[name] = e
	}
	c.mu.Unlock()
	e.once.Do(func() {
		w, err := Lookup(name)
		if err != nil {
			e.err = err
			return
		}
		e.t, e.err = w.Generate()
	})
	return e.t, e.err
}
