package explore

import (
	"context"
	"log/slog"
	"slices"
	"testing"
	"time"

	"galsim/internal/campaign"
)

// BenchmarkSearch measures a seeded evolutionary search, each run scored on
// a fresh serial engine, cold and with a 2k-instruction Warmup. Distinct
// candidate machines never share a warm prefix, so warm/cold, the median
// over iterations of the warm run's evals/s ÷ the cold run's, should stay
// near 1: the warm path costs nothing when it cannot share. Each iteration
// runs both sides in alternating order so host drift lands on both. evals/s
// and cache-hit-rate, the share of sweep units served from the result cache
// (duplicate mutants and builtin-equal candidates), are over the cold runs.
//
//	go test ./internal/explore -run '^$' -bench Search -benchtime 10x
func BenchmarkSearch(b *testing.B) {
	search := func(warmup uint64) SearchSpec {
		return SearchSpec{
			Name:         "bench",
			Seed:         7,
			Strategy:     StrategyEvolutionary,
			Workloads:    []string{"gcc"},
			Instructions: 4_000,
			Warmup:       warmup,
			Budget:       BudgetSpec{Population: 6, MaxGenerations: 3},
		}
	}
	specs := []SearchSpec{search(0), search(2_000)}
	var evals, units, hits int
	var coldSeconds float64
	var warmOverCold []float64
	for i := 0; i < b.N; i++ {
		rate := make([]float64, len(specs))
		for k := range specs {
			v := (i + k) % len(specs)
			x := &Explorer{
				Evaluator: BackendEvaluator{Backend: campaign.NewEngine(1)},
				Log:       slog.New(slog.DiscardHandler),
			}
			start := time.Now()
			res, err := x.Run(context.Background(), specs[v])
			took := time.Since(start).Seconds()
			if err != nil {
				b.Fatal(err)
			}
			if res.Evaluations == 0 {
				b.Fatalf("search with warmup %d made no evaluations", specs[v].Warmup)
			}
			rate[v] = float64(res.Evaluations) / took
			if v == 0 {
				evals += res.Evaluations
				units += res.Exec.Units
				hits += res.Exec.CacheHits
				coldSeconds += took
			}
		}
		warmOverCold = append(warmOverCold, rate[1]/rate[0])
	}
	b.ReportMetric(float64(evals)/coldSeconds, "evals/s")
	b.ReportMetric(float64(hits)/float64(units), "cache-hit-rate")
	b.ReportMetric(median(warmOverCold), "warm/cold")
}

func median(xs []float64) float64 {
	slices.Sort(xs)
	return (xs[(len(xs)-1)/2] + xs[len(xs)/2]) / 2
}
