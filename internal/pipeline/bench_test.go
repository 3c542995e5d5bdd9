package pipeline

import (
	"slices"
	"testing"
	"time"

	"galsim/internal/timeline"
	"galsim/internal/workload"
)

// BenchmarkObserverCost measures what the two in-simulation observers cost
// the GALS hot path: interval sampling every 1000 decode cycles, and a
// flight-ring timeline at standard detail, the recorder a fleet worker
// attaches to a traced job. Each iteration runs the bare core and the two
// observed cores in rotating order, so host drift lands on all three alike.
// Each cost is the median over iterations of observed time ÷ bare time,
// minus one; both are bounded at 0.05.
//
//	go test ./internal/pipeline -run '^$' -bench ObserverCost -benchtime 30x
func BenchmarkObserverCost(b *testing.B) {
	prof, err := workload.ByName("gcc")
	if err != nil {
		b.Fatal(err)
	}
	cores := []func() *Core{
		func() *Core { return NewCore(DefaultConfig(GALSTopology()), prof) },
		func() *Core {
			cfg := DefaultConfig(GALSTopology())
			cfg.SampleInterval = 1_000
			return NewCore(cfg, prof)
		},
		func() *Core {
			c := NewCore(DefaultConfig(GALSTopology()), prof)
			c.AttachTimeline(timeline.NewRecorder(timeline.Options{MaxEvents: 1024, Flight: true}), false, 0)
			return c
		},
	}
	var samplerCost, timelineCost []float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		took := make([]float64, len(cores))
		for k := range cores {
			v := (i + k) % len(cores)
			start := time.Now()
			cores[v]().Run(20_000)
			took[v] = time.Since(start).Seconds()
		}
		samplerCost = append(samplerCost, took[1]/took[0]-1)
		timelineCost = append(timelineCost, took[2]/took[0]-1)
	}
	b.ReportMetric(median(samplerCost), "sampler-cost")
	b.ReportMetric(median(timelineCost), "timeline-cost")
}

func median(xs []float64) float64 {
	slices.Sort(xs)
	return (xs[(len(xs)-1)/2] + xs[len(xs)/2]) / 2
}
