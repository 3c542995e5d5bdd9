package main

import (
	"fmt"
	"os"
	"time"

	"galsim/internal/campaign"
	"galsim/internal/pipeline"
)

// sim-long: the paper's single-run use. One goroutine runs campaign.Execute
// on long units, alternating {gals, base} × {gcc, swim}, so the simulator's
// hot path does nearly all the work. Every unit starts cold (empty caches
// and predictor); the units are long so that the cold start is amortized —
// at 4k instructions GALS gcc simulates at about half its long-run rate.
const (
	simLongInstrs = 250_000
	simLongWarmup = 20_000 // per unit of the set-up's warm-up round
)

func init() {
	workloads["sim-long"] = func(e env) (benchWorkload, error) { return &simLong{env: e}, nil }
}

type simLong struct {
	env
	round []campaign.RunSpec
}

// specs is one round of units of the given length. The seed picks the GALS
// clock phases; the instruction streams stay the default ones, because
// streams drawn from other workload seeds differ in simulation cost by tens
// of percent, which would swamp the differences the benchmark must show.
func (w *simLong) specs(instrs uint64) []campaign.RunSpec {
	var round []campaign.RunSpec
	for _, bench := range []string{"gcc", "swim"} {
		for _, machine := range []string{"gals", "base"} {
			round = append(round, campaign.RunSpec{
				Benchmark:    bench,
				Machine:      machine,
				Instructions: instrs,
				PhaseSeed:    derive(w.seed, 2),
			})
		}
	}
	return round
}

func (w *simLong) setUp() error {
	w.round = w.specs(simLongInstrs)
	for _, spec := range w.round {
		if err := spec.Validate(); err != nil {
			return err
		}
	}
	for _, spec := range w.specs(simLongWarmup) {
		if _, err := campaign.Execute(spec, nil); err != nil {
			return err
		}
	}
	return nil
}

func (w *simLong) measure(window time.Duration, tr *tracer) (*run, error) {
	var ph *phases
	if tr != nil {
		ph = &phases{}
	}
	r := &run{}
	m, err := startMeter(tr)
	if err != nil {
		return nil, err
	}
	// Whole rounds only, so every kind of unit weighs the same in the
	// latency percentiles.
	for m.elapsed() < window {
		roundStart := time.Now()
		for _, spec := range w.round {
			start := time.Now()
			var st pipeline.Stats
			if ph != nil {
				st, err = ph.execute(spec)
			} else {
				st, err = campaign.Execute(spec, nil)
			}
			r.unit(spec, st, err, time.Since(start))
		}
		r.passes = append(r.passes, time.Since(roundStart))
	}
	if err := m.stop(r); err != nil {
		return nil, err
	}
	if ph != nil {
		r.layers = ph.layers()
	}
	return r, nil
}

func (w *simLong) tearDown() {}

// unit checks one simulated unit: it ran, committed its whole budget, and
// produced the same statistics as every earlier run of the same spec.
func (r *run) unit(spec campaign.RunSpec, st pipeline.Stats, err error, latency time.Duration) {
	if err == nil && st.Committed != spec.Instructions {
		err = fmt.Errorf("committed %d of %d instructions", st.Committed, spec.Instructions)
	}
	key := spec.Key()
	if err == nil && !r.record(key, digestOf(st)) {
		err = fmt.Errorf("statistics differ from an earlier run of the same spec")
	}
	if !r.check(err == nil) {
		fmt.Fprintf(os.Stderr, "perfbench: unit %s/%s %.12s: %v\n", spec.Machine, spec.Benchmark, key, err)
		return
	}
	r.ops = append(r.ops, op{latency: latency, instrs: st.Committed, evals: 1})
}
