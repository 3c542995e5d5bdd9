// Package experiments regenerates every table and figure of the paper's
// evaluation (§5) from the simulator: one driver per artifact, each
// returning a report.Table whose rows correspond to the bars/points of the
// original figure. The EXPERIMENTS.md file at the repository root records
// paper-reported versus measured values.
package experiments

import (
	"context"
	"fmt"
	"sort"

	"galsim/internal/campaign"
	"galsim/internal/clocktree"
	"galsim/internal/dvfs"
	"galsim/internal/pipeline"
	"galsim/internal/power"
	"galsim/internal/report"
	"galsim/internal/workload"
)

// dvfsDefault is the technology operating point of the paper's second
// experiment set.
var dvfsDefault = dvfs.Default

// Config parameterizes a regeneration campaign. Zero values of the scalar
// fields select the campaign defaults (100 000 instructions, workload seed
// 42, phase seed 1) — there is no way to request a literal seed of 0, which
// matches the public galsim.Options semantics.
type Config struct {
	// Instructions committed per run.
	Instructions uint64
	// WorkloadSeed seeds the synthetic benchmark generators.
	WorkloadSeed int64
	// PhaseSeed seeds the GALS clock phases.
	PhaseSeed int64
	// Benchmarks restricts the corpus; nil means every registered benchmark.
	Benchmarks []string
	// Engine executes the runs; nil selects a process-wide shared engine, so
	// repeated figures (and concurrent galsimd requests) reuse each other's
	// completed simulations.
	Engine *campaign.Engine
	// Ctx, when non-nil, bounds the campaign: cancellation stops scheduling
	// new runs and surfaces as a panic from the driver (recovered by the
	// galsimd middleware). Nil means context.Background().
	Ctx context.Context
}

func (c Config) ctx() context.Context {
	if c.Ctx != nil {
		return c.Ctx
	}
	return context.Background()
}

// DefaultConfig is the standard campaign: every benchmark, 60k instructions.
func DefaultConfig() Config {
	return Config{Instructions: 60_000, WorkloadSeed: 42, PhaseSeed: 1}
}

func (c Config) benchmarks() []string {
	if len(c.Benchmarks) > 0 {
		return c.Benchmarks
	}
	return workload.Names()
}

func (c Config) engine() *campaign.Engine {
	if c.Engine != nil {
		return c.Engine
	}
	// The process-wide engine memoizes runs across every driver (and across
	// galsim.RunMany): regenerating Figure 9 after Figure 5 reuses the
	// corpus runs instead of re-simulating.
	return campaign.Shared()
}

// spec builds the campaign unit for one full-speed run of the campaign on
// the named built-in machine.
func (c Config) spec(machine, bench string) campaign.RunSpec {
	return campaign.RunSpec{
		Benchmark:    bench,
		Machine:      machine,
		Instructions: c.Instructions,
		WorkloadSeed: c.WorkloadSeed,
		PhaseSeed:    c.PhaseSeed,
	}
}

// runOne executes a single simulation on the named built-in machine
// through the campaign engine; tweak, when non-nil, adjusts the declarative
// spec before submission.
func runOne(cfg Config, machine, bench string, tweak func(*campaign.RunSpec)) pipeline.Stats {
	spec := cfg.spec(machine, bench)
	if tweak != nil {
		tweak(&spec)
	}
	st, _, err := cfg.engine().RunOpts(cfg.ctx(), spec, campaign.ExecOpts{})
	if err != nil {
		panic(err)
	}
	return st
}

// Pair is a matched base/GALS measurement for one benchmark.
type Pair struct {
	Base pipeline.Stats
	GALS pipeline.Stats
}

// RelPerformance is GALS performance normalized to base (< 1 means slower).
func (p Pair) RelPerformance() float64 {
	return p.Base.SimTime.Seconds() / p.GALS.SimTime.Seconds()
}

// RelEnergy is GALS total energy normalized to base.
func (p Pair) RelEnergy() float64 { return p.GALS.EnergyPJ / p.Base.EnergyPJ }

// RelPower is GALS average power normalized to base.
func (p Pair) RelPower() float64 { return p.GALS.AvgPowerWatts() / p.Base.AvgPowerWatts() }

// Corpus maps benchmark name to its measured pair.
type Corpus struct {
	cfg   Config
	pairs map[string]Pair
}

// RunCorpus measures every benchmark on both machines at full speed — the
// shared input of Figures 5 through 10 — by fanning the whole benchmark ×
// machine grid out over the campaign engine's worker pool.
func RunCorpus(cfg Config) *Corpus {
	benches := cfg.benchmarks()
	specs := make([]campaign.RunSpec, 0, 2*len(benches))
	for _, b := range benches {
		specs = append(specs, cfg.spec("base", b), cfg.spec("gals", b))
	}
	stats, err := cfg.engine().RunAll(cfg.ctx(), specs)
	if err != nil {
		panic(err)
	}
	c := &Corpus{cfg: cfg, pairs: map[string]Pair{}}
	for i, b := range benches {
		c.pairs[b] = Pair{Base: stats[2*i], GALS: stats[2*i+1]}
	}
	return c
}

// Benchmarks returns the corpus benchmarks in deterministic order.
func (c *Corpus) Benchmarks() []string {
	out := make([]string, 0, len(c.pairs))
	for b := range c.pairs {
		out = append(out, b)
	}
	sort.Strings(out)
	return out
}

// Pair returns one benchmark's measurements.
func (c *Corpus) Pair(bench string) Pair { return c.pairs[bench] }

// Fig5Performance regenerates Figure 5: performance of the GALS model
// relative to the base model, per benchmark. Paper: average ≈ 0.90 (10%
// slowdown, range 5–15%), with fpppp least affected.
func Fig5Performance(c *Corpus) *report.Table {
	t := &report.Table{
		ID:      "Figure 5",
		Title:   "Performance of the GALS model relative to the base model",
		Headers: []string{"benchmark", "base-time", "gals-time", "relative-perf"},
		Note:    "paper: average relative performance ~0.90; fpppp least affected",
	}
	sum := 0.0
	for _, b := range c.Benchmarks() {
		p := c.Pair(b)
		rel := p.RelPerformance()
		sum += rel
		t.AddRow(b, p.Base.SimTime.String(), p.GALS.SimTime.String(), report.F(rel))
	}
	t.AddRow("AVERAGE", "", "", report.F(sum/float64(len(c.Benchmarks()))))
	return t
}

// Fig6Slip regenerates Figure 6: average slip (fetch→commit latency) per
// instruction for base and GALS. Paper: slip increases ~65% on average.
func Fig6Slip(c *Corpus) *report.Table {
	t := &report.Table{
		ID:      "Figure 6",
		Title:   "Average slip of an instruction in the base and GALS designs",
		Headers: []string{"benchmark", "base-slip", "gals-slip", "gals/base"},
		Note:    "paper: slip increases by ~65% on average in GALS",
	}
	sum := 0.0
	for _, b := range c.Benchmarks() {
		p := c.Pair(b)
		ratio := float64(p.GALS.AvgSlip()) / float64(p.Base.AvgSlip())
		sum += ratio
		t.AddRow(b, p.Base.AvgSlip().String(), p.GALS.AvgSlip().String(), report.F(ratio))
	}
	t.AddRow("AVERAGE", "", "", report.F(sum/float64(len(c.Benchmarks()))))
	return t
}

// Fig7RelativeSlip regenerates Figure 7: the share of slip spent inside the
// inter-stage FIFOs versus the rest of the pipeline.
func Fig7RelativeSlip(c *Corpus) *report.Table {
	t := &report.Table{
		ID:      "Figure 7",
		Title:   "Relative slip: proportion spent in FIFOs vs pipeline",
		Headers: []string{"benchmark", "base-fifo-share", "gals-fifo-share", "gals-pipeline-share"},
		Note:    "paper: GALS slip growth is only partly accounted for by FIFO residency; the rest is result-forwarding latency",
	}
	for _, b := range c.Benchmarks() {
		p := c.Pair(b)
		t.AddRow(b, report.Pct(p.Base.FIFOSlipShare()), report.Pct(p.GALS.FIFOSlipShare()),
			report.Pct(1-p.GALS.FIFOSlipShare()))
	}
	return t
}

// Fig8Speculation regenerates Figure 8: percentage of mis-speculated
// (wrong-path) instructions among all fetched. Paper: integer applications
// rise from 13.8% (base) to 16.7% (GALS).
func Fig8Speculation(c *Corpus) *report.Table {
	t := &report.Table{
		ID:      "Figure 8",
		Title:   "Percentage of mis-speculated instructions, base vs GALS",
		Headers: []string{"benchmark", "base-misspec", "gals-misspec", "gals-int-RAT-occ", "base-int-RAT-occ"},
		Note:    "paper: integer average rises 13.8% -> 16.7%; occupancies also rise (ijpeg int RAT 15 -> 24)",
	}
	intSumB, intSumG, intN := 0.0, 0.0, 0
	intSet := map[string]bool{}
	for _, n := range workload.IntegerBenchmarks() {
		intSet[n] = true
	}
	for _, b := range c.Benchmarks() {
		p := c.Pair(b)
		t.AddRow(b, report.Pct(p.Base.MisspeculationFrac()), report.Pct(p.GALS.MisspeculationFrac()),
			report.F2(p.GALS.AvgIntRAT), report.F2(p.Base.AvgIntRAT))
		if intSet[b] {
			intSumB += p.Base.MisspeculationFrac()
			intSumG += p.GALS.MisspeculationFrac()
			intN++
		}
	}
	if intN > 0 {
		t.AddRow("INT-AVERAGE", report.Pct(intSumB/float64(intN)), report.Pct(intSumG/float64(intN)), "", "")
	}
	return t
}

// Fig9EnergyPower regenerates Figure 9: GALS total energy and average power
// normalized to base. Paper: energy ≈ +1% on average, power ≈ −10%.
func Fig9EnergyPower(c *Corpus) *report.Table {
	t := &report.Table{
		ID:      "Figure 9",
		Title:   "Energy and power of the GALS processor normalized to base",
		Headers: []string{"benchmark", "rel-energy", "rel-power"},
		Note:    "paper: average energy +1%, average power -10%",
	}
	sumE, sumP := 0.0, 0.0
	for _, b := range c.Benchmarks() {
		p := c.Pair(b)
		sumE += p.RelEnergy()
		sumP += p.RelPower()
		t.AddRow(b, report.F(p.RelEnergy()), report.F(p.RelPower()))
	}
	n := float64(len(c.Benchmarks()))
	t.AddRow("AVERAGE", report.F(sumE/n), report.F(sumP/n))
	return t
}

// Fig10Breakdown regenerates Figure 10: the energy breakdown into macro
// blocks, for base and GALS, normalized to the base total. The paper's
// single "ALUs" bar merges the integer and FP units, as done here.
func Fig10Breakdown(cfg Config, bench string) *report.Table {
	base := runOne(cfg, "base", bench, nil)
	gals := runOne(cfg, "gals", bench, nil)
	t := &report.Table{
		ID:      "Figure 10",
		Title:   fmt.Sprintf("Energy breakdown into macro blocks (%s), normalized to base total", bench),
		Headers: []string{"block", "base", "gals"},
		Note:    "paper: the global-clock saving in GALS is offset by increased consumption of other blocks",
	}
	type rowDef struct {
		label  string
		blocks []power.Block
	}
	rows := []rowDef{
		{"global clock", []power.Block{power.BlockGlobalClock}},
		{"fetch clock", []power.Block{power.BlockFetchClock}},
		{"decode clock", []power.Block{power.BlockDecodeClock}},
		{"integer clock", []power.Block{power.BlockIntClock}},
		{"fp clock", []power.Block{power.BlockFPClock}},
		{"memory clock", []power.Block{power.BlockMemClock}},
		{"alus", []power.Block{power.BlockALUs, power.BlockFPALUs}},
		{"register file", []power.Block{power.BlockRegfile}},
		{"rename logic", []power.Block{power.BlockRename}},
		{"l2 cache", []power.Block{power.BlockL2}},
		{"d-cache", []power.Block{power.BlockDCache}},
		{"branch predictor", []power.Block{power.BlockBPred}},
		{"i-cache", []power.Block{power.BlockICache}},
		{"memory issue window", []power.Block{power.BlockMemIQ}},
		{"fp issue window", []power.Block{power.BlockFPIQ}},
		{"integer issue window", []power.Block{power.BlockIntIQ}},
		{"fifos", []power.Block{power.BlockFIFOs}},
	}
	sumOf := func(st pipeline.Stats, blocks []power.Block) float64 {
		var s float64
		for _, b := range blocks {
			s += st.EnergyBreakdown[b]
		}
		return s
	}
	for _, r := range rows {
		t.AddRow(r.label,
			report.F(sumOf(base, r.blocks)/base.EnergyPJ),
			report.F(sumOf(gals, r.blocks)/base.EnergyPJ))
	}
	t.AddRow("TOTAL", report.F(1.0), report.F(gals.EnergyPJ/base.EnergyPJ))
	return t
}

// slowdownRun measures a GALS machine with per-domain slowdowns (voltage
// scaled per Eq. 1) against the full-speed base machine. Keys are campaign
// domain names ("fetch", "decode", "int", "fp", "mem").
func slowdownRun(cfg Config, bench string, slow map[string]float64) (base, gals pipeline.Stats) {
	base = runOne(cfg, "base", bench, nil)
	gals = runOne(cfg, "gals", bench, func(s *campaign.RunSpec) {
		s.Slowdowns = slow
	})
	return base, gals
}

// Fig11SelectiveSlowdown regenerates Figure 11: a generic slowdown (fetch
// and memory clocks −10%, FP clock −50%) applied to three benchmarks, plus
// the perl FP÷3 case described in the text. Paper: generic case loses ~18%
// performance; perl/FP÷3 loses 9% with energy −10.8% and power −18%.
func Fig11SelectiveSlowdown(cfg Config) *report.Table {
	t := &report.Table{
		ID:      "Figure 11",
		Title:   "Selective slowdown (fetch -10%, memory -10%, FP -50%) vs base",
		Headers: []string{"case", "rel-perf", "rel-energy", "rel-power"},
		Note:    "paper: ~18% performance loss for the generic case; perl FP/3: perf -9%, energy -10.8%, power -18%",
	}
	generic := map[string]float64{"fetch": 1.10, "mem": 1.10, "fp": 1.50}
	for _, bench := range []string{"perl", "ijpeg", "gcc"} {
		base, gals := slowdownRun(cfg, bench, generic)
		t.AddRow(bench+" (generic)",
			report.F(base.SimTime.Seconds()/gals.SimTime.Seconds()),
			report.F(gals.EnergyPJ/base.EnergyPJ),
			report.F(gals.AvgPowerWatts()/base.AvgPowerWatts()))
	}
	base, gals := slowdownRun(cfg, "perl", map[string]float64{"fp": 3.0})
	t.AddRow("perl (FP/3)",
		report.F(base.SimTime.Seconds()/gals.SimTime.Seconds()),
		report.F(gals.EnergyPJ/base.EnergyPJ),
		report.F(gals.AvgPowerWatts()/base.AvgPowerWatts()))
	return t
}

// Fig12IjpegSweep regenerates Figure 12: ijpeg with fetch −10%, FP −20% and
// a memory-clock sweep of 0/10/20/50% (gals-00/10/20/50), including the
// "ideal" synchronous-DVS energy at equal performance. Paper: energy savings
// 4–13%, performance drop 15–25%.
func Fig12IjpegSweep(cfg Config) *report.Table {
	t := &report.Table{
		ID:      "Figure 12",
		Title:   "ijpeg: fetch -10%, FP -20%, memory clock swept (gals-00/10/20/50)",
		Headers: []string{"case", "rel-perf", "rel-energy", "ideal-energy", "rel-power"},
		Note:    "paper: energy savings 4-13% with performance drops 15-25%; memory slowdown is a poor tradeoff for ijpeg",
	}
	for _, mem := range []struct {
		label string
		slow  float64
	}{
		{"gals-00", 1.0}, {"gals-10", 1.1}, {"gals-20", 1.2}, {"gals-50", 1.5},
	} {
		base, gals := slowdownRun(cfg, "ijpeg", map[string]float64{
			"fetch": 1.10, "fp": 1.20, "mem": mem.slow,
		})
		perf := base.SimTime.Seconds() / gals.SimTime.Seconds()
		ideal := dvfsIdeal(perf)
		t.AddRow(mem.label, report.F(perf), report.F(gals.EnergyPJ/base.EnergyPJ),
			report.F(ideal), report.F(gals.AvgPowerWatts()/base.AvgPowerWatts()))
	}
	return t
}

// Fig13GccSlowdown regenerates Figure 13: gcc with fetch −10% and the FP
// clock slowed 50% (gals-1) or 3× (gals-2), with the "ideal" column. Paper:
// energy −11%, power −21% at a 13% performance loss.
func Fig13GccSlowdown(cfg Config) *report.Table {
	t := &report.Table{
		ID:      "Figure 13",
		Title:   "gcc: fetch -10%, FP clock -50% (gals-1) or /3 (gals-2)",
		Headers: []string{"case", "rel-perf", "rel-energy", "ideal-energy", "rel-power"},
		Note:    "paper: gals-2 achieves energy -11%, power -21% at perf -13%",
	}
	for _, v := range []struct {
		label string
		fp    float64
	}{
		{"gals-1", 1.5}, {"gals-2", 3.0},
	} {
		base, gals := slowdownRun(cfg, "gcc", map[string]float64{
			"fetch": 1.10, "fp": v.fp,
		})
		perf := base.SimTime.Seconds() / gals.SimTime.Seconds()
		t.AddRow(v.label, report.F(perf), report.F(gals.EnergyPJ/base.EnergyPJ),
			report.F(dvfsIdeal(perf)), report.F(gals.AvgPowerWatts()/base.AvgPowerWatts()))
	}
	return t
}

// PhaseSensitivity regenerates the §5.1 observation that GALS performance
// varies with the relative phase of the clocks by about 0.5%.
func PhaseSensitivity(cfg Config, bench string, seeds int) *report.Table {
	t := &report.Table{
		ID:      "Phase sensitivity (§5.1)",
		Title:   fmt.Sprintf("GALS runtime of %s across clock phase seeds", bench),
		Headers: []string{"phase-seed", "gals-time", "vs-seed-1"},
		Note:    "paper: performance varies ~0.5% with relative clock phases",
	}
	var ref float64
	for s := 1; s <= seeds; s++ {
		st := runOne(cfg, "gals", bench, func(spec *campaign.RunSpec) {
			spec.PhaseSeed = int64(s)
		})
		secs := st.SimTime.Seconds()
		if s == 1 {
			ref = secs
		}
		t.AddRow(fmt.Sprintf("%d", s), st.SimTime.String(), report.F(ref/secs))
	}
	return t
}

// Table1Skew reproduces the paper's Table 1 and appends the Monte-Carlo
// skew estimate for each process generation.
func Table1Skew() *report.Table {
	t := &report.Table{
		ID:      "Table 1",
		Title:   "Trends in global clock skew across process generations",
		Headers: []string{"design", "tech", "devices", "cycle", "skew", "skew/cycle", "model-skew(ps)", "remarks"},
		Note:    "published data; model-skew is this repo's process-variation Monte-Carlo estimate",
	}
	for _, r := range clocktree.Table1() {
		mean, _, err := clocktree.Estimate(clocktree.ScaleForGeneration(r.TechnologyM), 1)
		if err != nil {
			panic(err)
		}
		t.AddRow(r.Design,
			fmt.Sprintf("%.2fum(%d)", r.TechnologyM, r.Year),
			fmt.Sprintf("%.1fM", r.Devices/1e6),
			fmt.Sprintf("%.2fns", r.CycleNS),
			fmt.Sprintf("%.0fps", r.SkewPS),
			report.Pct(r.SkewFraction()),
			fmt.Sprintf("%.0f", mean),
			r.Remarks)
	}
	return t
}

// dvfsIdeal is the "ideal" column of Figures 12/13: the energy of the base
// machine slowed uniformly (clock and voltage together) to the measured
// relative performance.
func dvfsIdeal(perfRatio float64) float64 {
	if perfRatio > 1 {
		perfRatio = 1
	}
	return dvfsDefault.IdealSynchronousEnergy(perfRatio)
}
