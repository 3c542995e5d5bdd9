//go:build !simlongonly

package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"time"

	"galsim/internal/campaign"
	"galsim/internal/explore"
)

// explore-evolve: seeded evolutionary design-space searches with a short
// budget, each on a fresh engine. Explorer evaluations per second is an
// end-to-end number of its own, and this is the only workload that builds
// non-builtin topologies, so without it the explore and machine layers go
// unmeasured.
// Searches from different seeds differ in cost by several percent, so a
// window cycles through many of them and the run's seed moves the mean
// little; a window still runs each of them more than once.
const (
	exploreSearches = 64 // search seeds a window cycles through
	exploreInstrs   = 4_000
)

var exploreBudget = explore.BudgetSpec{Population: 6, MaxGenerations: 3}

func init() {
	workloads["explore-evolve"] = func(e env) (benchWorkload, error) { return &exploreEvolve{env: e}, nil }
}

type exploreEvolve struct{ env }

// search is search k of the run; k = -1 is the set-up's warm-up search,
// on a seed no window uses.
func (w *exploreEvolve) search(k int) explore.SearchSpec {
	return explore.SearchSpec{
		Name:         "perfbench",
		Seed:         derive(w.seed, uint64(100+k)),
		Strategy:     explore.StrategyEvolutionary,
		Workloads:    []string{"gcc"},
		Instructions: exploreInstrs,
		Budget:       exploreBudget,
	}
}

func (w *exploreEvolve) run(ev explore.Evaluator, spec explore.SearchSpec) (*explore.Result, error) {
	x := &explore.Explorer{Evaluator: ev, Log: quietLog}
	return x.Run(context.Background(), spec)
}

func (w *exploreEvolve) setUp() error {
	_, err := w.run(explore.BackendEvaluator{Backend: campaign.NewEngine(w.nproc)}, w.search(-1))
	return err
}

func (w *exploreEvolve) measure(window time.Duration, tr *tracer) (*run, error) {
	var (
		generations durations
		searching   time.Duration
		units, hits int
	)
	r := &run{}
	m, err := startMeter(tr)
	if err != nil {
		return nil, err
	}
	for k := 0; m.elapsed() < window; k++ {
		spec := w.search(k % exploreSearches)
		var ev explore.Evaluator = explore.BackendEvaluator{Backend: campaign.NewEngine(w.nproc)}
		if tr != nil {
			ev = wrapEvaluator(ev, &generations)
		}
		start := time.Now()
		res, err := w.run(ev, spec)
		latency := time.Since(start)
		r.passes = append(r.passes, latency)
		if err == nil && res.Evaluations == 0 {
			err = errors.New("evaluated no candidate")
		}
		unit := fmt.Sprintf("search-seed-%d", spec.Seed)
		if err == nil && !r.record(unit, digestOf(res)) {
			err = errors.New("result differs from an earlier run of the same search")
		}
		if !r.check(err == nil) {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", unit, err)
			continue
		}
		r.ops = append(r.ops, op{latency: latency, instrs: uint64(res.Exec.Units) * exploreInstrs, evals: res.Evaluations})
		searching += latency
		units += res.Exec.Units
		hits += res.Exec.CacheHits
	}
	if err := m.stop(r); err != nil {
		return nil, err
	}
	if tr != nil {
		gens := generations.take()
		var evaluating time.Duration
		for _, d := range gens {
			evaluating += d
		}
		r.layers = map[string]float64{
			"explore.evaluate_ms_per_gen": ms(evaluating) / float64(len(gens)),
			"explore.self_ms_per_gen":     ms(searching-evaluating) / float64(len(gens)),
			"explore.cache_hit_ratio":     float64(hits) / float64(units),
		}
	}
	return r, nil
}

func (w *exploreEvolve) tearDown() {}

// timedEvaluator times every generation the explorer evaluates (the
// baseline's sweep counts as one).
type timedEvaluator struct {
	ev    explore.Evaluator
	calls *durations
}

func (t timedEvaluator) EvaluateSweep(ctx context.Context, s campaign.Sweep, fn campaign.ProgressFunc) ([]campaign.UnitResult, error) {
	defer t.since(time.Now())
	return t.ev.EvaluateSweep(ctx, s, fn)
}

func (t timedEvaluator) since(start time.Time) { t.calls.add(time.Since(start)) }

// warmSharer is the warm-up counter surface the explorer reads from its
// evaluator, or from the backend under an explore.BackendEvaluator.
type warmSharer interface {
	WarmSharing() (groups, savedInstructions uint64)
}

// wrapEvaluator returns ev with every generation timed into calls. The
// explorer unwraps only its own BackendEvaluator to find warm-up counters,
// so the wrapper offers the counters the explorer would have found behind
// ev.
func wrapEvaluator(ev explore.Evaluator, calls *durations) explore.Evaluator {
	t := timedEvaluator{ev: ev, calls: calls}
	var src any = ev
	if be, ok := ev.(explore.BackendEvaluator); ok {
		src = be.Backend
	}
	if ws, ok := src.(warmSharer); ok {
		return struct {
			timedEvaluator
			warmSharer
		}{t, ws}
	}
	return t
}
