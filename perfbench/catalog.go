package main

import (
	"bytes"
	"fmt"
	"maps"
	"slices"
	"time"

	"repro/internal/eval"
	"repro/internal/mpisim"
	"repro/tracered"
)

// catalog_study is the paper's comparative study run from container
// files. Each pass visits the catalog traces in a seeded order, decodes
// and analyzes each full trace once, then runs one cell per method in a
// seeded order: a pipelined reduce to TRR2 at the paper-default
// threshold under exact matching, the digest check, a read-back, and the
// score against the full trace. A trace's study — decode, analysis, and
// its nine cells — is the unit latency is reported for. Every offline layer works here, and the
// matcher's classes stay below the size at which the indexes engage.

const (
	// catalogSLO is the latency limit of one trace's study: decoding and
	// analyzing it, then its nine cells.
	catalogSLO = 2 * time.Second
	// catalogVariants is how many cost models the seed chooses from:
	// variant v simulates every study trace with v microseconds more
	// network latency than the study's default. Each variant's exact
	// outputs have committed digests.
	catalogVariants = 4
)

// catalogVariant maps a seed to one of the committed cost models.
func catalogVariant(seed int64) int {
	return int(uint64(seed) % catalogVariants)
}

// catalogInput is one study trace and its containers.
type catalogInput struct {
	name    string
	variant int
	trace   *tracered.Trace
	events  int
	trc     map[tracered.Format][]byte
}

// buildCatalog simulates the named study traces under the variant's cost
// model and encodes each in the given container versions.
func buildCatalog(names []string, variant int, formats ...tracered.Format) ([]*catalogInput, error) {
	ins := make([]*catalogInput, 0, len(names))
	for _, name := range names {
		w, err := eval.Lookup(name)
		if err != nil {
			return nil, err
		}
		prog, sim, err := w.Build()
		if err != nil {
			return nil, fmt.Errorf("building %s: %w", name, err)
		}
		sim.Latency += tracered.Time(variant)
		t, err := mpisim.Run(prog, sim)
		if err != nil {
			return nil, fmt.Errorf("simulating %s: %w", name, err)
		}
		in := &catalogInput{name: name, variant: variant, trace: t, events: t.NumEvents(), trc: map[tracered.Format][]byte{}}
		for _, f := range formats {
			var b bytes.Buffer
			if err := tracered.WriteTraceFormat(&b, t, f); err != nil {
				return nil, fmt.Errorf("encoding %s as %v: %w", name, f, err)
			}
			in.trc[f] = b.Bytes()
		}
		ins = append(ins, in)
	}
	return ins, nil
}

func catalogKey(in *catalogInput, method string, f tracered.Format) string {
	return fmt.Sprintf("catalog/%d/%s/%s/%v", in.variant, in.name, method, f)
}

// cellResult is one scored cell.
type cellResult struct {
	inBytes, outBytes int
	degree            float64
	eval              *tracered.EvalResult
}

func runCatalog(cfg *config) (*report, error) {
	ins, setup, err := setUp(cfg.setupRuns, func() ([]*catalogInput, error) {
		return buildCatalog(cfg.catalog, catalogVariant(cfg.seed), tracered.FormatV2)
	})
	if err != nil {
		return nil, err
	}
	ck, err := newChecker(cfg)
	if err != nil {
		return nil, err
	}
	r := newRNG(cfg.seed, streamCatalog)
	o := &ops{slo: catalogSLO}
	cells := map[string]cellResult{}
	var events int64
	var rates []float64
	var window time.Duration
	rt, peak, err := measured(cfg.traced, func() (err error) {
		rates, window, err = passLoop(cfg.seconds, func() (int64, error) {
			var n int64
			for _, i := range r.perm(len(ins)) {
				in := ins[i]
				begin := time.Now()
				full, err := tracered.ReadTrace(bytes.NewReader(in.trc[tracered.FormatV2]))
				if err != nil {
					return 0, fmt.Errorf("decoding %s: %w", in.name, err)
				}
				diag, err := tracered.Analyze(full)
				if err != nil {
					return 0, fmt.Errorf("analyzing %s: %w", in.name, err)
				}
				ok := true
				for _, j := range r.perm(len(tracered.MethodNames)) {
					method := tracered.MethodNames[j]
					c, err := catalogCell(cfg, ck, in, full, diag, method)
					o.add(err)
					if err == nil {
						cells[in.name+"/"+method] = c
					}
					ok = ok && err == nil
					n += int64(in.events)
				}
				o.time(time.Since(begin), ok)
			}
			o.endWindow()
			events += n
			return n, nil
		})
		return err
	})
	if err != nil {
		return nil, err
	}
	rep := newReport(window)
	rep.merge(o.tally)
	rep.samples["passes"] = len(rates)
	rep.samples["cells"] = o.attempted
	rep.samples["trace_studies"] = len(o.latMs)
	if cfg.traced {
		order := r.perm(len(ins))
		if err := finishTraced(cfg, ck, rep, rt, peak, func(d *layerDriver) error {
			return catalogLayers(d, ins, order)
		}); err != nil {
			return nil, err
		}
		putServeLayers(rep.Metrics, nil, nil)
		return rep, nil
	}
	var q quality
	for _, k := range slices.Sorted(maps.Keys(cells)) {
		c := cells[k]
		q.add(c.inBytes, c.outBytes, c.degree, c.eval)
	}
	m := rep.Metrics
	m.put("setup_s", "s", setup)
	m.put("events_per_s", "events/s", median(rates))
	m.put("alloc_bytes_per_event", "B", float64(rt.allocBytes)/float64(events))
	q.put(m)
	o.put(m)
	return rep, nil
}

// catalogCell reduces one trace with one method through the pipeline,
// checks the output against its committed digest, reads it back, and
// scores it.
func catalogCell(cfg *config, ck *checker, in *catalogInput, full *tracered.Trace, diag *tracered.Diagnosis, method string) (cellResult, error) {
	src := in.trc[tracered.FormatV2]
	out, st, err := pipelineReduce(src, method, tracered.MatchModeExact, tracered.FormatV2, cfg.workers)
	if err != nil {
		return cellResult{}, err
	}
	if err := ck.verify(catalogKey(in, method, tracered.FormatV2), out); err != nil {
		return cellResult{}, err
	}
	res, err := scoreOutput(out, st, full, diag, cfg.workers)
	if err != nil {
		return cellResult{}, err
	}
	return cellResult{inBytes: len(src), outBytes: len(out), degree: st.DegreeOfMatching(), eval: res}, nil
}

// catalogLayers is catalog_study's traced pass: the same cells, one
// layer call at a time.
func catalogLayers(d *layerDriver, ins []*catalogInput, order []int) error {
	for _, i := range order {
		in := ins[i]
		src := in.trc[tracered.FormatV2]
		full, err := d.decodeFull(src)
		if err != nil {
			return err
		}
		diag, err := d.analyze(full)
		if err != nil {
			return err
		}
		for _, method := range tracered.MethodNames {
			d.op(func() error {
				out, err := d.reduce(src, method, tracered.MatchModeExact, tracered.FormatV2)
				if err == nil {
					err = d.check(catalogKey(in, method, tracered.FormatV2), out)
				}
				if err != nil {
					return err
				}
				return d.score(out, full, diag)
			})
		}
	}
	return nil
}
