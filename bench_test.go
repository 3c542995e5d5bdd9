// Benchmarks regenerating every table and figure of the paper's evaluation.
// Each benchmark runs the corresponding experiment end to end and reports
// the headline metric the paper quotes as a custom benchmark metric, so
//
//	go test -bench=. -benchmem
//
// both exercises the full harness and prints the reproduced numbers.
// Shapes to expect (see EXPERIMENTS.md for the full record):
//
//	Figure 5:  GALS relative performance ≈ 0.85–0.98 (paper: 0.85–0.95)
//	Figure 6:  GALS slip ratio > 1 (paper: ≈ 1.65)
//	Figure 8:  integer misspeculation rises in GALS (paper: 13.8% → 16.7%)
//	Figure 9:  GALS energy ≈ 1.0×, power < 1× (paper: +1%, −10%)
//	Figure 13: gcc FP/3 saves energy and power at a modest performance loss
package galsim

import (
	"testing"

	"galsim/internal/clocktree"
	"galsim/internal/experiments"
	"galsim/internal/machine"
	"galsim/internal/pipeline"
	"galsim/internal/workload"
)

// benchCfg keeps per-iteration cost manageable: three representative
// benchmarks (one branchy integer, one FP-heavy, the paper's least-affected
// outlier), 15k instructions.
func benchCfg() experiments.Config {
	cfg := experiments.DefaultConfig()
	cfg.Instructions = 15_000
	cfg.Benchmarks = []string{"gcc", "swim", "fpppp"}
	return cfg
}

func BenchmarkTable1SkewTrends(b *testing.B) {
	b.ReportAllocs()
	var mean float64
	for i := 0; i < b.N; i++ {
		m, _, err := clocktree.Estimate(clocktree.DefaultTree(), 1)
		if err != nil {
			b.Fatal(err)
		}
		mean = m
	}
	b.ReportMetric(mean, "skew-ps")
}

func BenchmarkFig5RelativePerformance(b *testing.B) {
	b.ReportAllocs()
	var rel float64
	for i := 0; i < b.N; i++ {
		c := experiments.RunCorpus(benchCfg())
		sum := 0.0
		for _, name := range c.Benchmarks() {
			sum += c.Pair(name).RelPerformance()
		}
		rel = sum / float64(len(c.Benchmarks()))
	}
	b.ReportMetric(rel, "rel-perf")
}

func BenchmarkFig6Slip(b *testing.B) {
	b.ReportAllocs()
	var ratio float64
	for i := 0; i < b.N; i++ {
		c := experiments.RunCorpus(benchCfg())
		sum := 0.0
		for _, name := range c.Benchmarks() {
			p := c.Pair(name)
			sum += float64(p.GALS.AvgSlip()) / float64(p.Base.AvgSlip())
		}
		ratio = sum / float64(len(c.Benchmarks()))
	}
	b.ReportMetric(ratio, "slip-ratio")
}

func BenchmarkFig7RelativeSlip(b *testing.B) {
	b.ReportAllocs()
	var share float64
	for i := 0; i < b.N; i++ {
		c := experiments.RunCorpus(benchCfg())
		sum := 0.0
		for _, name := range c.Benchmarks() {
			sum += c.Pair(name).GALS.FIFOSlipShare()
		}
		share = sum / float64(len(c.Benchmarks()))
	}
	b.ReportMetric(share, "fifo-share")
}

func BenchmarkFig8Speculation(b *testing.B) {
	b.ReportAllocs()
	cfg := benchCfg()
	cfg.Benchmarks = []string{"gcc", "li", "compress"} // integer set
	var delta float64
	for i := 0; i < b.N; i++ {
		c := experiments.RunCorpus(cfg)
		sumB, sumG := 0.0, 0.0
		for _, name := range c.Benchmarks() {
			p := c.Pair(name)
			sumB += p.Base.MisspeculationFrac()
			sumG += p.GALS.MisspeculationFrac()
		}
		delta = (sumG - sumB) / float64(len(c.Benchmarks()))
	}
	b.ReportMetric(100*delta, "misspec-delta-pts")
}

func BenchmarkFig9EnergyPower(b *testing.B) {
	b.ReportAllocs()
	var energy, pwr float64
	for i := 0; i < b.N; i++ {
		c := experiments.RunCorpus(benchCfg())
		sumE, sumP := 0.0, 0.0
		for _, name := range c.Benchmarks() {
			p := c.Pair(name)
			sumE += p.RelEnergy()
			sumP += p.RelPower()
		}
		n := float64(len(c.Benchmarks()))
		energy, pwr = sumE/n, sumP/n
	}
	b.ReportMetric(energy, "rel-energy")
	b.ReportMetric(pwr, "rel-power")
}

func BenchmarkFig10Breakdown(b *testing.B) {
	b.ReportAllocs()
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		experiments.Fig10Breakdown(cfg, "compress")
	}
}

func BenchmarkFig11SelectiveSlowdown(b *testing.B) {
	b.ReportAllocs()
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		experiments.Fig11SelectiveSlowdown(cfg)
	}
}

func BenchmarkFig12IjpegSweep(b *testing.B) {
	b.ReportAllocs()
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		experiments.Fig12IjpegSweep(cfg)
	}
}

func BenchmarkFig13GccSlowdown(b *testing.B) {
	b.ReportAllocs()
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		experiments.Fig13GccSlowdown(cfg)
	}
}

func BenchmarkPhaseSensitivity(b *testing.B) {
	b.ReportAllocs()
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		experiments.PhaseSensitivity(cfg, "li", 3)
	}
}

// BenchmarkAblations regenerates the design-decision ablation tables (link
// style, synchronizer depth, FIFO capacity, clock phases, predictor,
// memory disambiguation).
func BenchmarkAblations(b *testing.B) {
	b.ReportAllocs()
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		experiments.AblationLinkStyle(cfg, "gcc")
		experiments.AblationSyncEdges(cfg, "compress")
		experiments.AblationFIFOCapacity(cfg, "swim")
		experiments.AblationClockPhases(cfg, "li")
		experiments.AblationPredictor(cfg, "gcc")
		experiments.AblationDisambiguation(cfg, "vortex")
	}
}

// BenchmarkDynamicDVFS exercises the online frequency/voltage controller
// (the paper's concluding future direction) and reports perl's relative
// energy under it.
func BenchmarkDynamicDVFS(b *testing.B) {
	b.ReportAllocs()
	prof, err := workload.ByName("perl")
	if err != nil {
		b.Fatal(err)
	}
	var rel float64
	for i := 0; i < b.N; i++ {
		base := newCore(pipeline.DefaultConfig(topology(b, machine.Base())), prof).Run(30_000)
		cfg := pipeline.DefaultConfig(topology(b, machine.GALS()))
		cfg.DynamicDVFS = true
		dyn := newCore(cfg, prof).Run(30_000)
		rel = dyn.EnergyPJ / base.EnergyPJ
	}
	b.ReportMetric(rel, "rel-energy")
}

// BenchmarkSimulatorThroughput measures raw simulation speed: simulated
// instructions per wall-clock second for the GALS machine.
func BenchmarkSimulatorThroughput(b *testing.B) {
	b.ReportAllocs()
	prof, err := workload.ByName("gcc")
	if err != nil {
		b.Fatal(err)
	}
	const n = 20_000
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := pipeline.DefaultConfig(topology(b, machine.GALS()))
		newCore(cfg, prof).Run(n)
	}
	b.ReportMetric(float64(n*uint64(b.N))/b.Elapsed().Seconds(), "sim-instrs/s")
}

// topology returns a machine's clock topology.
func topology(b *testing.B, m machine.Spec) pipeline.Topology {
	t, err := m.Topology()
	if err != nil {
		b.Fatal(err)
	}
	return t
}

// newCore builds a core running prof's synthetic generator, bypassing the
// campaign engine.
func newCore(cfg pipeline.Config, prof workload.Profile) *pipeline.Core {
	return pipeline.NewCoreWithSource(cfg, prof.Name, workload.NewGenerator(prof, cfg.WorkloadSeed))
}
