// Package ats generates message-passing programs with *known* performance
// behaviours, in the spirit of the APART Test Suite the paper builds its
// benchmarks from: five regularly-behaving benchmarks (one per
// communication-pattern category), ten irregular benchmarks driven by
// ASCI Q-style system interference, and a dynamic-load-balancing
// benchmark. Because every generator documents the pathology it plants,
// the evaluation can check whether a reduced trace still diagnoses it.
package ats

import (
	"fmt"

	"repro/internal/mpisim"
	"repro/internal/noise"
)

// Params tunes the common benchmark dimensions.
type Params struct {
	// Ranks is the number of processes.
	Ranks int
	// Iterations is the length of the main loop.
	Iterations int
	// Work is the base per-iteration compute time (µs); the paper's
	// interference benchmarks use ~1 ms.
	Work mpisim.Time
	// Severity is the extra delay that plants the performance problem.
	Severity mpisim.Time
	// Bytes is the message payload size.
	Bytes int64
	// JitterPct adds deterministic ±percent variation to compute phases,
	// modelling the measurement noise real traces always carry.
	JitterPct int
}

// DefaultParams returns the dimensions used by the evaluation for the
// regular benchmarks: 8 ranks, 60 iterations, 1 ms work, 0.5 ms severity.
func DefaultParams() Params {
	return Params{Ranks: 8, Iterations: 60, Work: 1000, Severity: 500, Bytes: 4096, JitterPct: 3}
}

// Benchmark couples a generated program with the behaviour it plants.
type Benchmark struct {
	// Name is the workload name ("late_sender", "1to1r_1024", ...).
	Name string
	// Pattern is the communication-pattern category ("1-1", "N-1",
	// "1-N", "N-N").
	Pattern string
	// Program is the message-passing program to simulate.
	Program *mpisim.Program
	// Config is the cost model (noise included for the irregular set).
	Config mpisim.Config
	// ExpectMetric names the EXPERT metric that should dominate
	// ("late_sender", "wait_nxn", ...), empty when only interference
	// variation is planted.
	ExpectMetric string
	// ExpectLocation is the function the metric should attach to.
	ExpectLocation string
}

// worker wraps one rank's builder with its jitter stream so generators
// can emit noisy compute phases concisely.
type worker struct {
	r   *mpisim.RankProgram
	j   *jitter
	pct int
}

func newWorker(name string, rank int, r *mpisim.RankProgram, p Params) *worker {
	return &worker{r: r, j: newJitter(name, rank), pct: p.JitterPct}
}

// compute emits a compute phase of roughly dur with the benchmark's
// measurement jitter applied.
func (w *worker) compute(name string, dur mpisim.Time) {
	w.r.Compute(name, w.j.stretch(dur, w.pct))
}

// iterInit emits the short, highly variable loop-header phases every
// iteration segment starts with: the bookkeeping whose large relative
// spread stresses ratio-based similarity tests on real traces.
func (w *worker) iterInit() {
	w.r.Compute("iter_init", w.j.small(2))
	w.r.Compute("get_bounds", w.j.small(3))
}

// prologue emits the init segment every benchmark shares.
func (w *worker) prologue() {
	w.r.InSegment("init", func() {
		w.compute("setup", 200)
		w.r.Barrier()
	})
}

// epilogue emits the final segment every benchmark shares.
func (w *worker) epilogue() {
	w.r.InSegment("final", func() {
		w.r.Barrier()
		w.compute("teardown", 100)
	})
}

// LateSender builds the 1-to-1 benchmark where even ranks send late:
// receivers (odd ranks) block in MPI_Recv for ~Severity every iteration.
func LateSender(p Params) *Benchmark {
	prog := mpisim.NewProgram("late_sender", p.Ranks)
	prog.ForAll(func(rank int, r *mpisim.RankProgram) {
		w := newWorker("late_sender", rank, r, p)
		w.prologue()
		for i := 0; i < p.Iterations; i++ {
			r.InSegment("main.1", func() {
				w.iterInit()
				w.compute("do_work", p.Work)
				if rank%2 == 0 {
					w.compute("extra_work", p.Severity)
					r.Send(rank+1, 7, p.Bytes)
				} else {
					r.Recv(rank-1, 7, p.Bytes)
				}
			})
		}
		w.epilogue()
	})
	return &Benchmark{Name: "late_sender", Pattern: "1-1", Program: prog,
		Config: mpisim.DefaultConfig(), ExpectMetric: "late_sender", ExpectLocation: "MPI_Recv"}
}

// LateReceiver builds the 1-to-1 benchmark with synchronous sends where
// receivers are late: senders block in MPI_Ssend for ~Severity.
func LateReceiver(p Params) *Benchmark {
	prog := mpisim.NewProgram("late_receiver", p.Ranks)
	prog.ForAll(func(rank int, r *mpisim.RankProgram) {
		w := newWorker("late_receiver", rank, r, p)
		w.prologue()
		for i := 0; i < p.Iterations; i++ {
			r.InSegment("main.1", func() {
				w.iterInit()
				w.compute("do_work", p.Work)
				if rank%2 == 0 {
					r.Ssend(rank+1, 7, p.Bytes)
				} else {
					w.compute("extra_work", p.Severity)
					r.Recv(rank-1, 7, p.Bytes)
				}
			})
		}
		w.epilogue()
	})
	return &Benchmark{Name: "late_receiver", Pattern: "1-1", Program: prog,
		Config: mpisim.DefaultConfig(), ExpectMetric: "late_receiver", ExpectLocation: "MPI_Ssend"}
}

// EarlyGather builds the N-to-1 benchmark where the root reaches
// MPI_Gather ~Severity before the contributors and waits there.
func EarlyGather(p Params) *Benchmark {
	prog := mpisim.NewProgram("early_gather", p.Ranks)
	prog.ForAll(func(rank int, r *mpisim.RankProgram) {
		w := newWorker("early_gather", rank, r, p)
		w.prologue()
		for i := 0; i < p.Iterations; i++ {
			r.InSegment("main.1", func() {
				w.iterInit()
				w.compute("do_work", p.Work)
				if rank != 0 {
					w.compute("extra_work", p.Severity)
				}
				r.Gather(0, p.Bytes)
			})
		}
		w.epilogue()
	})
	return &Benchmark{Name: "early_gather", Pattern: "N-1", Program: prog,
		Config: mpisim.DefaultConfig(), ExpectMetric: "early_gather", ExpectLocation: "MPI_Gather"}
}

// LateBroadcast builds the 1-to-N benchmark where the root reaches
// MPI_Bcast ~Severity after everyone else, blocking all non-roots.
func LateBroadcast(p Params) *Benchmark {
	prog := mpisim.NewProgram("late_broadcast", p.Ranks)
	prog.ForAll(func(rank int, r *mpisim.RankProgram) {
		w := newWorker("late_broadcast", rank, r, p)
		w.prologue()
		for i := 0; i < p.Iterations; i++ {
			r.InSegment("main.1", func() {
				w.iterInit()
				w.compute("do_work", p.Work)
				if rank == 0 {
					w.compute("extra_work", p.Severity)
				}
				r.Bcast(0, p.Bytes)
			})
		}
		w.epilogue()
	})
	return &Benchmark{Name: "late_broadcast", Pattern: "1-N", Program: prog,
		Config: mpisim.DefaultConfig(), ExpectMetric: "late_broadcast", ExpectLocation: "MPI_Bcast"}
}

// ImbalanceAtBarrier builds the N-to-N benchmark with a linear work
// imbalance in front of MPI_Barrier: rank i computes Work + i·Severity/
// (Ranks−1), so low ranks wait longest at the barrier.
func ImbalanceAtBarrier(p Params) *Benchmark {
	prog := mpisim.NewProgram("imbalance_at_mpi_barrier", p.Ranks)
	prog.ForAll(func(rank int, r *mpisim.RankProgram) {
		w := newWorker("imbalance_at_mpi_barrier", rank, r, p)
		w.prologue()
		extra := p.Severity * mpisim.Time(rank) / mpisim.Time(p.Ranks-1)
		for i := 0; i < p.Iterations; i++ {
			r.InSegment("main.1", func() {
				w.iterInit()
				w.compute("do_work", p.Work+extra)
				r.Barrier()
			})
		}
		w.epilogue()
	})
	return &Benchmark{Name: "imbalance_at_mpi_barrier", Pattern: "N-N", Program: prog,
		Config: mpisim.DefaultConfig(), ExpectMetric: "wait_barrier", ExpectLocation: "MPI_Barrier"}
}

// InterferencePattern selects the communication step of an irregular
// benchmark.
type InterferencePattern int

// The interference benchmark communication patterns (paper §4.1).
const (
	// PatternNto1 gathers to rank 0 each iteration.
	PatternNto1 InterferencePattern = iota
	// Pattern1toN broadcasts from rank 0 each iteration.
	Pattern1toN
	// PatternNtoN synchronizes with a barrier each iteration.
	PatternNtoN
	// Pattern1to1r pairs ranks with synchronous sends (receive-side
	// blocking moves to the sender: late_receiver shape).
	Pattern1to1r
	// Pattern1to1s pairs ranks with eager sends and blocking receives
	// (late_sender shape).
	Pattern1to1s
)

func (ip InterferencePattern) String() string {
	switch ip {
	case PatternNto1:
		return "Nto1"
	case Pattern1toN:
		return "1toN"
	case PatternNtoN:
		return "NtoN"
	case Pattern1to1r:
		return "1to1r"
	case Pattern1to1s:
		return "1to1s"
	}
	return fmt.Sprintf("pattern(%d)", int(ip))
}

func (ip InterferencePattern) category() string {
	switch ip {
	case PatternNto1:
		return "N-1"
	case Pattern1toN:
		return "1-N"
	case PatternNtoN:
		return "N-N"
	default:
		return "1-1"
	}
}

// Interference builds one of the ten irregular benchmarks: Iterations of
// ~1 ms constant, balanced work followed by the pattern's communication
// step, run under the ASCI Q noise model. simulated is the simulated
// machine size (32 or 1024); the noise load scales with simulated/Ranks.
func Interference(p Params, pattern InterferencePattern, simulated int) *Benchmark {
	name := fmt.Sprintf("%s_%d", pattern, simulated)
	prog := mpisim.NewProgram(name, p.Ranks)
	prog.ForAll(func(rank int, r *mpisim.RankProgram) {
		w := newWorker(name, rank, r, p)
		w.prologue()
		for i := 0; i < p.Iterations; i++ {
			r.InSegment("main.1", func() {
				w.iterInit()
				w.compute("do_work", p.Work)
				switch pattern {
				case PatternNto1:
					r.Gather(0, p.Bytes)
				case Pattern1toN:
					r.Bcast(0, p.Bytes)
				case PatternNtoN:
					r.Barrier()
				case Pattern1to1r:
					if rank%2 == 0 {
						r.Ssend(rank+1, 7, p.Bytes)
					} else {
						r.Recv(rank-1, 7, p.Bytes)
					}
				case Pattern1to1s:
					if rank%2 == 0 {
						r.Send(rank+1, 7, p.Bytes)
					} else {
						r.Recv(rank-1, 7, p.Bytes)
					}
				}
			})
		}
		w.epilogue()
	})
	cfg := mpisim.DefaultConfig()
	scale := int64(simulated / p.Ranks)
	cfg.Noise = noise.ASCIQ(p.Ranks, scale)
	b := &Benchmark{Name: name, Pattern: pattern.category(), Program: prog, Config: cfg}
	switch pattern {
	case PatternNto1:
		b.ExpectMetric, b.ExpectLocation = "early_gather", "MPI_Gather"
	case Pattern1toN:
		b.ExpectMetric, b.ExpectLocation = "late_broadcast", "MPI_Bcast"
	case PatternNtoN:
		b.ExpectMetric, b.ExpectLocation = "wait_barrier", "MPI_Barrier"
	case Pattern1to1r:
		b.ExpectMetric, b.ExpectLocation = "late_receiver", "MPI_Ssend"
	case Pattern1to1s:
		b.ExpectMetric, b.ExpectLocation = "late_sender", "MPI_Recv"
	}
	return b
}

// InterferenceParams returns the dimensions of the irregular set: 32
// ranks, 1 ms work periods.
func InterferenceParams() Params {
	return Params{Ranks: 32, Iterations: 150, Work: 1000, Severity: 0, Bytes: 65536, JitterPct: 3}
}

// HaloJitter builds the jittered halo-exchange benchmark: the ranks form
// a ring and every iteration exchange boundary data with both neighbours
// (eager send + blocking receive, the usual stencil idiom) after a
// compute phase carrying 4× the usual measurement jitter. No fixed
// pathology is planted; instead the amplified, per-rank-decorrelated
// jitter makes every rank's receives wait on whichever neighbour drew
// the slower phase, spreading small late_sender waits across all ranks
// and giving every segment's measurement vector a different shape — the
// scenario that stresses similarity thresholds (and the matcher's
// pruning) hardest.
func HaloJitter(p Params) *Benchmark {
	prog := mpisim.NewProgram("halo_jitter", p.Ranks)
	prog.ForAll(func(rank int, r *mpisim.RankProgram) {
		w := newWorker("halo_jitter", rank, r, p)
		right := (rank + 1) % p.Ranks
		left := (rank + p.Ranks - 1) % p.Ranks
		w.prologue()
		for i := 0; i < p.Iterations; i++ {
			r.InSegment("main.1", func() {
				w.iterInit()
				r.Compute("do_work", w.j.stretch(p.Work, 4*w.pct))
				r.Sendrecv(right, left, 11, p.Bytes)
				r.Sendrecv(left, right, 12, p.Bytes)
			})
		}
		w.epilogue()
	})
	return &Benchmark{Name: "halo_jitter", Pattern: "1-1", Program: prog,
		Config: mpisim.DefaultConfig(), ExpectMetric: "late_sender", ExpectLocation: "MPI_Recv"}
}

// BurstyIO builds the bursty-I/O benchmark: every iteration each rank
// computes ~Work and synchronizes at a barrier, and every Ranks-th
// iteration — staggered so exactly one rank bursts per iteration — a
// rank flushes its I/O buffers, a 3×Severity compute burst. Everyone
// else waits for the flushing rank, planting imbalance at MPI_Barrier
// that rotates through the ranks; the burst iterations also split each
// rank's segment stream into two behaviour modes, the bimodality that
// distinguishes threshold choices in the reduction study.
func BurstyIO(p Params) *Benchmark {
	burst := 3 * p.Severity
	prog := mpisim.NewProgram("bursty_io", p.Ranks)
	prog.ForAll(func(rank int, r *mpisim.RankProgram) {
		w := newWorker("bursty_io", rank, r, p)
		w.prologue()
		for i := 0; i < p.Iterations; i++ {
			r.InSegment("main.1", func() {
				w.iterInit()
				w.compute("do_work", p.Work)
				if (i+rank)%p.Ranks == 0 {
					w.compute("io_flush", burst)
				}
				r.Barrier()
			})
		}
		w.epilogue()
	})
	return &Benchmark{Name: "bursty_io", Pattern: "N-N", Program: prog,
		Config: mpisim.DefaultConfig(), ExpectMetric: "wait_barrier", ExpectLocation: "MPI_Barrier"}
}

// DynLoadBalance builds the dynamic-load-balancing benchmark: work starts
// balanced at ~Work per iteration; every iteration the upper half of the
// ranks does Step more and the lower half Step less, until the drift
// reaches Trigger and the "load balancer" resets everyone to Work. The
// planted problem is imbalance at MPI_Alltoall (Wait at N×N), with the
// lower ranks waiting.
func DynLoadBalance(p Params) *Benchmark {
	const step = 60
	trigger := p.Severity // drift amplitude before rebalancing
	if trigger <= 0 {
		trigger = 480
	}
	prog := mpisim.NewProgram("dyn_load_balance", p.Ranks)
	prog.ForAll(func(rank int, r *mpisim.RankProgram) {
		w := newWorker("dyn_load_balance", rank, r, p)
		w.prologue()
		drift := mpisim.Time(0)
		for i := 0; i < p.Iterations; i++ {
			drift += step
			if drift > trigger {
				drift = step // the load balancer ran at the end of last iteration
			}
			work := p.Work - drift
			if rank >= p.Ranks/2 {
				work = p.Work + drift
			}
			r.InSegment("main.1", func() {
				w.iterInit()
				w.compute("do_work", work)
				r.Alltoall(p.Bytes)
			})
		}
		w.epilogue()
	})
	return &Benchmark{Name: "dyn_load_balance", Pattern: "N-N", Program: prog,
		Config: mpisim.DefaultConfig(), ExpectMetric: "wait_nxn", ExpectLocation: "MPI_Alltoall"}
}
