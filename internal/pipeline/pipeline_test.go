package pipeline

import (
	"fmt"
	"strings"
	"testing"

	"galsim/internal/power"
	"galsim/internal/workload"
)

func run(t *testing.T, topo Topology, bench string, n uint64, mutate func(*Config)) Stats {
	t.Helper()
	cfg := DefaultConfig(topo)
	if mutate != nil {
		mutate(&cfg)
	}
	prof, err := workload.ByName(bench)
	if err != nil {
		t.Fatal(err)
	}
	return NewCore(cfg, prof).Run(n)
}

func TestBaseRunsToCompletion(t *testing.T) {
	st := run(t, BaseTopology(), "compress", 20_000, nil)
	if st.Committed != 20_000 {
		t.Fatalf("committed %d", st.Committed)
	}
	if st.SimTime <= 0 {
		t.Fatal("no simulated time elapsed")
	}
	ipc := st.IPC()
	if ipc < 0.3 || ipc > 4 {
		t.Errorf("base IPC = %.2f, outside plausible [0.3, 4]", ipc)
	}
}

func TestGALSRunsToCompletion(t *testing.T) {
	st := run(t, GALSTopology(), "compress", 20_000, nil)
	if st.Committed != 20_000 {
		t.Fatalf("committed %d", st.Committed)
	}
}

func TestGALSSlowerThanBase(t *testing.T) {
	// The paper's headline performance result: asynchronous communication
	// slows the GALS machine down, on the order of 5-15%.
	for _, bench := range []string{"compress", "gcc", "li"} {
		base := run(t, BaseTopology(), bench, 30_000, nil)
		gals := run(t, GALSTopology(), bench, 30_000, nil)
		rel := base.SimTime.Seconds() / gals.SimTime.Seconds()
		if rel >= 1.0 {
			t.Errorf("%s: GALS (%v) not slower than base (%v)", bench, gals.SimTime, base.SimTime)
		}
		if rel < 0.70 {
			t.Errorf("%s: GALS slowdown too extreme: relative perf %.3f", bench, rel)
		}
	}
}

func TestGALSSlipExceedsBase(t *testing.T) {
	base := run(t, BaseTopology(), "gcc", 30_000, nil)
	gals := run(t, GALSTopology(), "gcc", 30_000, nil)
	if gals.AvgSlip() <= base.AvgSlip() {
		t.Errorf("GALS slip %v not above base %v", gals.AvgSlip(), base.AvgSlip())
	}
	if base.FIFOSlipShare() <= 0 || gals.FIFOSlipShare() <= 0 {
		t.Error("slip shares not recorded")
	}
	if gals.FIFOSlipShare() <= base.FIFOSlipShare() {
		t.Errorf("GALS FIFO slip share %.3f not above base %.3f",
			gals.FIFOSlipShare(), base.FIFOSlipShare())
	}
}

func TestGALSMoreMisspeculation(t *testing.T) {
	base := run(t, BaseTopology(), "gcc", 30_000, nil)
	gals := run(t, GALSTopology(), "gcc", 30_000, nil)
	if base.MisspeculationFrac() <= 0 {
		t.Fatal("base shows no wrong-path fetch at all")
	}
	if gals.MisspeculationFrac() <= base.MisspeculationFrac() {
		t.Errorf("GALS misspeculation %.3f not above base %.3f",
			gals.MisspeculationFrac(), base.MisspeculationFrac())
	}
}

func TestDeterminism(t *testing.T) {
	a := run(t, GALSTopology(), "li", 15_000, nil)
	b := run(t, GALSTopology(), "li", 15_000, nil)
	if a.SimTime != b.SimTime || a.Fetched != b.Fetched || a.EnergyPJ != b.EnergyPJ {
		t.Errorf("identical configs diverged: %v/%v, %d/%d, %g/%g",
			a.SimTime, b.SimTime, a.Fetched, b.Fetched, a.EnergyPJ, b.EnergyPJ)
	}
}

func TestPhaseChangesResults(t *testing.T) {
	a := run(t, GALSTopology(), "li", 15_000, nil)
	b := run(t, GALSTopology(), "li", 15_000, func(c *Config) { c.PhaseSeed = 99 })
	if a.SimTime == b.SimTime {
		t.Error("different clock phases produced identical timing")
	}
	// ... but only slightly (paper: ~0.5%).
	rel := a.SimTime.Seconds() / b.SimTime.Seconds()
	if rel < 0.95 || rel > 1.05 {
		t.Errorf("phase sensitivity too large: ratio %.4f", rel)
	}
}

func TestBaseHasGlobalClockGALSNot(t *testing.T) {
	base := run(t, BaseTopology(), "compress", 10_000, nil)
	gals := run(t, GALSTopology(), "compress", 10_000, nil)
	if base.EnergyBreakdown[power.BlockGlobalClock] <= 0 {
		t.Error("base machine burned no global clock energy")
	}
	if g := gals.EnergyBreakdown[power.BlockGlobalClock]; g != 0 {
		t.Errorf("GALS machine burned global clock energy %v", g)
	}
	if gals.EnergyBreakdown[power.BlockFIFOs] <= 0 {
		t.Error("GALS machine burned no FIFO energy")
	}
	if base.EnergyBreakdown[power.BlockFIFOs] != 0 {
		t.Error("base machine charged FIFO energy")
	}
}

func TestFppppLeastAffected(t *testing.T) {
	// fpppp's branch scarcity makes it the least-hurt benchmark (Figure 5).
	relOf := func(bench string) float64 {
		base := run(t, BaseTopology(), bench, 25_000, nil)
		gals := run(t, GALSTopology(), bench, 25_000, nil)
		return base.SimTime.Seconds() / gals.SimTime.Seconds()
	}
	fp := relOf("fpppp")
	gcc := relOf("gcc")
	if fp <= gcc {
		t.Errorf("fpppp relative perf %.3f should exceed gcc %.3f", fp, gcc)
	}
}

func TestOccupanciesHigherInGALS(t *testing.T) {
	base := run(t, BaseTopology(), "ijpeg", 30_000, nil)
	gals := run(t, GALSTopology(), "ijpeg", 30_000, nil)
	if gals.AvgIntRAT <= base.AvgIntRAT {
		t.Errorf("GALS int RAT occupancy %.1f not above base %.1f",
			gals.AvgIntRAT, base.AvgIntRAT)
	}
	if gals.ROB.AvgOccupancy <= base.ROB.AvgOccupancy {
		t.Errorf("GALS ROB occupancy %.1f not above base %.1f",
			gals.ROB.AvgOccupancy, base.ROB.AvgOccupancy)
	}
}

func TestSlowedDomainStretchesRuntime(t *testing.T) {
	normal := run(t, GALSTopology(), "swim", 20_000, nil)
	slowFP := run(t, GALSTopology(), "swim", 20_000, func(c *Config) {
		c.Slowdowns[DomFP] = 1.5
	})
	if slowFP.SimTime <= normal.SimTime {
		t.Error("slowing the FP clock did not hurt an FP benchmark")
	}
}

func TestFPSlowdownHarmlessForIntegerCode(t *testing.T) {
	// perl has no FP instructions; slowing the FP domain by 3x should cost
	// very little extra time relative to plain GALS (paper §5.2).
	normal := run(t, GALSTopology(), "perl", 25_000, nil)
	slowFP := run(t, GALSTopology(), "perl", 25_000, func(c *Config) {
		c.Slowdowns[DomFP] = 3.0
	})
	ratio := slowFP.SimTime.Seconds() / normal.SimTime.Seconds()
	if ratio > 1.05 {
		t.Errorf("FP/3 slowed perl by %.1f%%, want < 5%%", 100*(ratio-1))
	}
	if slowFP.EnergyPJ >= normal.EnergyPJ {
		t.Error("FP slowdown with voltage scaling did not save energy")
	}
}

func TestVoltageScalingReducesEnergy(t *testing.T) {
	freqOnly := run(t, GALSTopology(), "perl", 20_000, func(c *Config) {
		c.Slowdowns[DomFP] = 2.0
		c.AutoVoltage = false
	})
	withDVS := run(t, GALSTopology(), "perl", 20_000, func(c *Config) {
		c.Slowdowns[DomFP] = 2.0
		c.AutoVoltage = true
	})
	if withDVS.EnergyPJ >= freqOnly.EnergyPJ {
		t.Errorf("DVS energy %.3g not below frequency-only %.3g",
			withDVS.EnergyPJ, freqOnly.EnergyPJ)
	}
	// Timing identical: voltage does not change the clock.
	if withDVS.SimTime != freqOnly.SimTime {
		t.Error("voltage scaling changed timing")
	}
}

func TestStatsInternallyConsistent(t *testing.T) {
	st := run(t, GALSTopology(), "gcc", 25_000, nil)
	if st.WrongPathFetched+st.Committed > st.Fetched {
		t.Error("committed + wrong-path exceeds fetched")
	}
	if st.Mispredicts == 0 || st.Recoveries == 0 {
		t.Error("branchy benchmark shows no mispredictions/recoveries")
	}
	if st.Recoveries != st.Mispredicts {
		t.Errorf("recoveries %d != mispredicts %d", st.Recoveries, st.Mispredicts)
	}
	if st.SquashedROB == 0 {
		t.Error("no ROB squashes despite recoveries")
	}
	var sum float64
	for _, e := range st.EnergyBreakdown {
		sum += e
	}
	if d := (sum - st.EnergyPJ) / st.EnergyPJ; d > 1e-9 || d < -1e-9 {
		t.Error("energy breakdown does not sum to total")
	}
	if st.L1D.Accesses == 0 || st.L1I.Accesses == 0 {
		t.Error("caches untouched")
	}
}

func TestAllBenchmarksRunBothMachines(t *testing.T) {
	if testing.Short() {
		t.Skip("full benchmark sweep in -short mode")
	}
	for _, name := range workload.Names() {
		for _, topo := range []Topology{BaseTopology(), GALSTopology()} {
			st := run(t, topo, name, 8_000, nil)
			if st.Committed != 8_000 {
				t.Errorf("%s/%s committed %d", topo.kind(), name, st.Committed)
			}
		}
	}
}

func TestConfigValidation(t *testing.T) {
	cfg := DefaultConfig(BaseTopology())
	cfg.Slowdowns[DomFP] = 2.0 // base must be uniform
	if err := cfg.Validate(); err == nil {
		t.Error("non-uniform base slowdown accepted")
	}
	cfg = DefaultConfig(GALSTopology())
	cfg.ROBSize = 0
	if err := cfg.Validate(); err == nil {
		t.Error("zero ROB accepted")
	}
	cfg = DefaultConfig(GALSTopology())
	cfg.Slowdowns[DomInt] = 0.5
	if err := cfg.Validate(); err == nil {
		t.Error("overclock accepted")
	}
	// The zero Topology describes no machine; it must not stand for one.
	cfg = DefaultConfig(GALSTopology())
	cfg.Topology = Topology{}
	if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), "no clock domains") {
		t.Errorf("zero topology: Validate = %v, want a no-clock-domains error", err)
	}
}

func TestRunGuards(t *testing.T) {
	cfg := DefaultConfig(BaseTopology())
	prof, _ := workload.ByName("compress")
	c := NewCore(cfg, prof)
	c.Run(100)
	for name, fn := range map[string]func(){
		"double run": func() { c.Run(100) },
		"zero run":   func() { NewCore(cfg, prof).Run(0) },
		"zero topology": func() {
			bad := cfg
			bad.Topology = Topology{}
			NewCore(bad, prof)
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestWatchdogReportsStalledCycles: the deadlock guard's limit scales with
// the slowest clock domain, and its panic reports the decode cycles that
// actually passed without a commit and that scaled limit.
func TestWatchdogReportsStalledCycles(t *testing.T) {
	cfg := DefaultConfig(GALSTopology())
	cfg.Slowdowns[DomMem] = 1000
	prof, _ := workload.ByName("gcc")
	c := NewCore(cfg, prof)
	const limit = maxStallCycles * 1000
	if got := c.stallLimit(); got != limit {
		t.Fatalf("stallLimit = %d, want %d", got, limit)
	}
	watchdog := func(decodeCycles uint64) (msg string) {
		defer func() {
			if p := recover(); p != nil {
				msg = fmt.Sprint(p)
			}
		}()
		c.decodeCycles, c.lastProgress = decodeCycles, 500
		c.watchdogAndSamples()
		return ""
	}
	if msg := watchdog(500 + limit - 1); msg != "" {
		t.Fatalf("watchdog fired at the limit: %s", msg)
	}
	msg := watchdog(500 + limit)
	want := fmt.Sprintf("pipeline: no commit in %d decode cycles (limit %d) (gals/gcc)", limit+1, limit)
	if !strings.HasPrefix(msg, want) {
		t.Errorf("watchdog panic = %q, want prefix %q", msg, want)
	}
}
