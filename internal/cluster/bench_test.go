package cluster

import (
	"context"
	"fmt"
	"testing"

	"galsim/internal/campaign"
)

// BenchmarkFleetSweep compares the golden sweep on the single-process
// engine against in-process HTTP worker fleets. Engines are rebuilt every
// iteration so the caches start cold — this measures simulation plus
// fabric overhead, not cache hits. On a single-core host the fleet adds
// only coordination overhead; the speedup needs real cores (one per
// worker), like the campaign parallel benchmarks.
func BenchmarkFleetSweep(b *testing.B) {
	sweep := goldenSweep()
	units, err := sweepSpecs(sweep)
	if err != nil {
		b.Fatal(err)
	}
	instrs := int64(len(units)) * int64(sweep.Instructions)

	b.Run("single-process", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := campaign.NewEngine(0).RunAll(context.Background(), units); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(instrs*int64(b.N))/b.Elapsed().Seconds(), "sim-instrs/s")
	})
	for _, workers := range []int{1, 3} {
		b.Run(fmt.Sprintf("fleet-%dworker", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				f := startFleet(b, Config{}, workers, 2)
				b.StartTimer()
				if _, err := f.coord.RunAll(context.Background(), units); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				f.stop()
				b.StartTimer()
			}
			b.ReportMetric(float64(instrs*int64(b.N))/b.Elapsed().Seconds(), "sim-instrs/s")
		})
	}
}
