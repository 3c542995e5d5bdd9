//go:build !simlongonly

package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"slices"
	"sync"
	"time"

	"galsim/internal/campaign"
	"galsim/internal/pipeline"
)

// sweep-cold: the shape of cmd/experiments and of explore generations.
// Each pass is a fresh engine sweeping every built-in benchmark × {base,
// gals} × slowdown grid {none, all=1.5, fp=3} at short units, so per-run
// fixed costs — source materialization, core build, engine scheduling — do
// most of the work and the hot path is secondary.
const sweepInstrs = 6_000

func init() {
	workloads["sweep-cold"] = func(e env) (benchWorkload, error) { return &sweepCold{env: e}, nil }
}

type sweepCold struct {
	env
	sweeps []campaign.Sweep
}

// plan is one pass over the given benchmarks. The base machine has a
// single clock, which answers only to "all": crossed with the fp point it
// would repeat its full-speed unit, so each machine sweeps its own grid
// and every unit of a pass is distinct. As in sim-long, the seed picks the
// clock phases and the instruction streams stay the default ones.
func (w *sweepCold) plan(benchmarks []string) []campaign.Sweep {
	ps := []int64{derive(w.seed, 4)}
	return []campaign.Sweep{
		{Benchmarks: benchmarks, Machines: []string{"base"}, SlowdownGrid: []map[string]float64{nil, {"all": 1.5}},
			PhaseSeeds: ps, Instructions: sweepInstrs},
		{Benchmarks: benchmarks, Machines: []string{"gals"}, SlowdownGrid: []map[string]float64{nil, {"all": 1.5}, {"fp": 3}},
			PhaseSeeds: ps, Instructions: sweepInstrs},
	}
}

func (w *sweepCold) setUp() error {
	w.sweeps = w.plan(campaign.Benchmarks())
	for _, s := range w.sweeps {
		if _, err := s.Units(); err != nil {
			return err
		}
	}
	_, err := pass(campaign.NewEngine(w.nproc), w.plan([]string{"gcc"}))
	return err
}

// pass runs the sweeps of one pass concurrently on one backend and returns
// their results in sweep order.
func pass(b campaign.Backend, sweeps []campaign.Sweep) ([]campaign.UnitResult, error) {
	results := make([][]campaign.UnitResult, len(sweeps))
	errs := make([]error, len(sweeps))
	var wg sync.WaitGroup
	for i, s := range sweeps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = campaign.RunSweepOn(context.Background(), b, s)
		}()
	}
	wg.Wait()
	return slices.Concat(results...), errors.Join(errs...)
}

func (w *sweepCold) measure(window time.Duration, tr *tracer) (*run, error) {
	var ph *phases
	if tr != nil {
		ph = &phases{}
	}
	r := &run{}
	m, err := startMeter(tr)
	if err != nil {
		return nil, err
	}
	for m.elapsed() < window {
		var b campaign.Backend = campaign.NewEngine(w.nproc)
		if ph != nil {
			b = phaseBackend{ph: ph, sem: make(chan struct{}, w.nproc)}
		}
		start := time.Now()
		units, err := pass(b, w.sweeps)
		latency := time.Since(start)
		if !r.check(err == nil) {
			fmt.Fprintln(os.Stderr, "perfbench: sweep pass:", err)
			continue
		}
		var instrs uint64
		for _, u := range units {
			if !r.check(u.Summary.Committed == sweepInstrs && r.record(u.Key, digestOf(u))) {
				fmt.Fprintf(os.Stderr, "perfbench: sweep unit %s/%s %.12s: short or changed result\n",
					u.Spec.Machine, u.Spec.Benchmark, u.Key)
				continue
			}
			instrs += u.Summary.Committed
		}
		r.ops = append(r.ops, op{latency: latency, instrs: instrs, evals: len(units)})
		r.passes = append(r.passes, latency)
	}
	if err := m.stop(r); err != nil {
		return nil, err
	}
	if ph != nil {
		r.layers = ph.layers()
	}
	return r, nil
}

func (w *sweepCold) tearDown() {}

// phaseBackend executes a sweep's units with phases.execute — the traced
// stand-in for the engine, whose cache a pass of distinct units never
// hits — at most cap(sem) at a time across concurrent batches, like the
// engine's worker bound.
type phaseBackend struct {
	ph  *phases
	sem chan struct{}
}

func (b phaseBackend) RunAll(_ context.Context, specs []campaign.RunSpec) ([]pipeline.Stats, error) {
	stats := make([]pipeline.Stats, len(specs))
	err := forEach(b.sem, len(specs), func(i int) (err error) {
		stats[i], err = b.ph.execute(specs[i])
		return err
	})
	return stats, err
}
