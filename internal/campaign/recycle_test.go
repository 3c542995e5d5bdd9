package campaign

import (
	"runtime"
	"testing"
)

// raceEnabled is set under the race detector, whose instrumentation
// allocates on its own and which drops a quarter of sync.Pool puts at
// random: byte counts mean nothing there.
var raceEnabled bool

// coldUnit is one short GALS unit: the shape of a sweep's units, whose
// set-up — tables sized for the whole machine — outweighs its simulation.
func coldUnit() RunSpec {
	return RunSpec{Benchmark: "gcc", Machine: "gals", Instructions: 6_000}
}

// TestColdUnitAllocatesLittle bounds the bytes a short unit allocates once
// an earlier unit's tables are at hand: the instruction arena's chunks, the
// cache tag stores, the predictor tables and the program pages are
// recycled, not rebuilt. Without that a unit allocates ~750 KB. The minimum
// of five consecutive units is gated because two garbage collections empty
// the pools the tables wait in, and one may fall inside any unit.
func TestColdUnitAllocatesLittle(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	const limit = 128 << 10
	if _, err := ExecuteOpts(coldUnit(), ExecOpts{}); err != nil {
		t.Fatal(err)
	}
	least := ^uint64(0)
	var ms runtime.MemStats
	for i := 0; i < 5; i++ {
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		if _, err := ExecuteOpts(coldUnit(), ExecOpts{}); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&ms)
		least = min(least, ms.TotalAlloc-before)
	}
	t.Logf("least bytes allocated by one unit: %d", least)
	if least > limit {
		t.Errorf("a 6k-instruction GALS unit allocated at least %d bytes, want <= %d", least, limit)
	}
}

// BenchmarkColdUnit runs one short GALS unit per iteration through
// ExecuteOpts: set-up, simulation and release, the unit of a cold sweep.
func BenchmarkColdUnit(b *testing.B) {
	b.ReportAllocs()
	for b.Loop() {
		if _, err := ExecuteOpts(coldUnit(), ExecOpts{}); err != nil {
			b.Fatal(err)
		}
	}
}
