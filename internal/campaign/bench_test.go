package campaign

import (
	"context"
	"slices"
	"testing"
	"time"
)

// benchSweep expands to 56 units: 14 benchmarks x 2 machines x 2 phase
// seeds, kept short so one serial pass stays in benchmark-friendly range.
func benchSweep() Sweep {
	return Sweep{
		Benchmarks: []string{
			"adpcm", "applu", "compress", "epic", "fpppp", "g721", "gcc",
			"ijpeg", "li", "m88ksim", "mpeg2", "perl", "swim", "vortex",
		},
		Machines:     []string{"base", "gals"},
		PhaseSeeds:   []int64{1, 2},
		Instructions: 4_000,
	}
}

// BenchmarkSweep compares a 56-unit campaign executed serially (one worker)
// against the pooled engine. Run with -cpu 4 to see the parallel speedup the
// engine exists for:
//
//	go test ./internal/campaign -bench BenchmarkSweep -cpu 4
//
// A fresh engine per iteration keeps the content-addressed cache cold, so
// the benchmark measures simulation throughput, not memoization.
func BenchmarkSweep(b *testing.B) {
	b.ReportAllocs()
	for _, bc := range []struct {
		name    string
		workers int
	}{
		{"serial", 1},
		{"parallel", 0}, // GOMAXPROCS, i.e. the -cpu value
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			sweep := benchSweep()
			units, err := sweepSpecs(sweep)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e := NewEngine(bc.workers)
				if _, err := e.RunAll(context.Background(), units); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(units)), "units")
		})
	}
}

// BenchmarkSweepCached measures the memoized path: every unit after the
// first iteration is a cache hit.
func BenchmarkSweepCached(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine(0)
	units, err := sweepSpecs(benchSweep())
	if err != nil {
		b.Fatal(err)
	}
	if _, err := e.RunAll(context.Background(), units); err != nil {
		b.Fatal(err) // warm the cache outside the timed region
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.RunAll(context.Background(), units); err != nil {
			b.Fatal(err)
		}
	}
	st := e.Stats()
	b.ReportMetric(float64(st.Hits), "cache-hits")
}

// BenchmarkWarmSharing measures warm-up snapshot sharing on a convergence
// grid: three instruction budgets per operating point, where the budgets of
// a point fork one snapshot warmed for 24k instructions instead of each
// simulating the warm-up. The warm-up must outweigh the snapshot round-trip
// for sharing to pay, hence convergence-study budgets. Each iteration runs
// the cold and the warm sweep on fresh serial engines, in alternating order
// so host drift lands on both; warm-speedup is the median over iterations of
// cold time ÷ warm time, and below 1 sharing does not pay.
//
//	go test ./internal/campaign -run '^$' -bench WarmSharing -benchtime 10x
func BenchmarkWarmSharing(b *testing.B) {
	grid := func(warmup uint64) Sweep {
		return Sweep{
			Benchmarks:       []string{"gcc", "swim"},
			Machines:         []string{"base", "gals"},
			InstructionsGrid: []uint64{30_000, 36_000, 42_000},
			Warmup:           warmup,
		}
	}
	sweeps := []Sweep{grid(0), grid(24_000)}
	var speedup []float64
	for i := 0; i < b.N; i++ {
		took := make([]float64, len(sweeps))
		for k := range sweeps {
			v := (i + k) % len(sweeps)
			start := time.Now()
			if _, err := RunSweepOn(context.Background(), NewEngine(1), sweeps[v]); err != nil {
				b.Fatal(err)
			}
			took[v] = time.Since(start).Seconds()
		}
		speedup = append(speedup, took[0]/took[1])
	}
	b.ReportMetric(median(speedup), "warm-speedup")
}

func median(xs []float64) float64 {
	slices.Sort(xs)
	return (xs[(len(xs)-1)/2] + xs[len(xs)/2]) / 2
}
