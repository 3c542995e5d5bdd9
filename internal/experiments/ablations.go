package experiments

import (
	"fmt"

	"galsim/internal/bpred"
	"galsim/internal/campaign"
	"galsim/internal/pipeline"
	"galsim/internal/report"
)

// Ablations probe the design decisions DESIGN.md calls out: the choice of
// communication mechanism (§3.2), the synchronizer depth, the FIFO sizing
// required for full streaming throughput, the clock-phase relationship, and
// the front-end predictor. Each returns a table comparing variants against
// the full-speed base machine on one benchmark.

// AblationLinkStyle compares the paper's mixed-clock FIFOs against the
// stretchable-clock handshake alternative discussed and rejected in §3.2:
// with transactions occurring practically every cycle, the effective
// frequency of a stretch-clocked machine is set by the communication rate.
func AblationLinkStyle(cfg Config, bench string) *report.Table {
	t := &report.Table{
		ID:      "Ablation: link style",
		Title:   fmt.Sprintf("Mixed-clock FIFOs vs stretchable clocks (%s)", bench),
		Headers: []string{"machine", "rel-perf", "ipc", "avg-slip"},
		Note:    "paper §3.2: stretching the clock on every transaction would let the communication rate, not the oscillator, set the effective frequency",
	}
	base := runOne(cfg, "base", bench, nil)
	t.AddRow("base (sync)", report.F(1.0), report.F2(base.IPC()), base.AvgSlip().String())
	galsFIFO := runOne(cfg, "gals", bench, nil)
	t.AddRow("gals fifo", report.F(base.SimTime.Seconds()/galsFIFO.SimTime.Seconds()),
		report.F2(galsFIFO.IPC()), galsFIFO.AvgSlip().String())
	galsStretch := runOne(cfg, "gals", bench, func(s *campaign.RunSpec) {
		s.LinkStyle = "stretch"
	})
	t.AddRow("gals stretch", report.F(base.SimTime.Seconds()/galsStretch.SimTime.Seconds()),
		report.F2(galsStretch.IPC()), galsStretch.AvgSlip().String())
	return t
}

// AblationSyncEdges sweeps the flag-synchronizer depth of the mixed-clock
// FIFOs: 1 (aggressive single-flop), 2 (the safe two-flop default), 3
// (conservative).
func AblationSyncEdges(cfg Config, bench string) *report.Table {
	t := &report.Table{
		ID:      "Ablation: synchronizer depth",
		Title:   fmt.Sprintf("Mixed-clock FIFO flag synchronizer depth (%s)", bench),
		Headers: []string{"sync-edges", "rel-perf", "avg-slip", "misspec"},
		Note:    "deeper synchronizers lower metastability risk at a performance cost",
	}
	base := runOne(cfg, "base", bench, nil)
	for _, edges := range []int{1, 2, 3} {
		gals := runOne(cfg, "gals", bench, func(s *campaign.RunSpec) {
			s.FIFOSyncEdges = edges
		})
		t.AddRow(fmt.Sprintf("%d", edges),
			report.F(base.SimTime.Seconds()/gals.SimTime.Seconds()),
			gals.AvgSlip().String(), report.Pct(gals.MisspeculationFrac()))
	}
	return t
}

// AblationFIFOCapacity sweeps the FIFO depth. A two-flop-synchronized FIFO
// needs roughly width x (1 + syncEdges + 1) entries before its full-flag
// pessimism stops throttling a 4-wide producer.
func AblationFIFOCapacity(cfg Config, bench string) *report.Table {
	t := &report.Table{
		ID:      "Ablation: FIFO capacity",
		Title:   fmt.Sprintf("Mixed-clock FIFO depth (%s)", bench),
		Headers: []string{"capacity", "rel-perf", "avg-slip", "fifo-share"},
		Note:    "shallow FIFOs cannot stream at full width: the freed-slot news lags two producer edges",
	}
	base := runOne(cfg, "base", bench, nil)
	for _, capa := range []int{4, 8, 16, 32} {
		gals := runOne(cfg, "gals", bench, func(s *campaign.RunSpec) {
			s.FIFOCapacity = capa
		})
		t.AddRow(fmt.Sprintf("%d", capa),
			report.F(base.SimTime.Seconds()/gals.SimTime.Seconds()),
			gals.AvgSlip().String(), report.Pct(gals.FIFOSlipShare()))
	}
	return t
}

// AblationClockPhases compares random local-clock phases (the paper's
// setup) against artificially aligned phases, isolating the synchronizer
// cost from phase-alignment luck.
func AblationClockPhases(cfg Config, bench string) *report.Table {
	t := &report.Table{
		ID:      "Ablation: clock phases",
		Title:   fmt.Sprintf("Random vs aligned GALS clock phases (%s)", bench),
		Headers: []string{"phases", "rel-perf", "avg-slip"},
		Note:    "aligned equal-frequency clocks pay the full two-edge synchronizer latency on every crossing; random phases average lower",
	}
	base := runOne(cfg, "base", bench, nil)
	random := runOne(cfg, "gals", bench, nil)
	t.AddRow("random", report.F(base.SimTime.Seconds()/random.SimTime.Seconds()), random.AvgSlip().String())
	aligned := runOne(cfg, "gals", bench, func(s *campaign.RunSpec) {
		s.ZeroPhases = true
	})
	t.AddRow("aligned", report.F(base.SimTime.Seconds()/aligned.SimTime.Seconds()), aligned.AvgSlip().String())
	return t
}

// AblationDisambiguation sweeps the memory cluster's load/store ordering
// policy: the oracle model used by the study against conservative and
// address-matching LSQ behaviours.
func AblationDisambiguation(cfg Config, bench string) *report.Table {
	t := &report.Table{
		ID:      "Ablation: memory disambiguation",
		Title:   fmt.Sprintf("Load/store ordering policy, base machine (%s)", bench),
		Headers: []string{"policy", "ipc", "loads-blocked", "avg-slip"},
		Note:    "the study's machine assumes perfect memory-dependence prediction",
	}
	for _, pol := range []pipeline.MemDisambiguation{
		pipeline.DisambigPerfect, pipeline.DisambigAddrMatch, pipeline.DisambigConservative,
	} {
		st := runOne(cfg, "base", bench, func(s *campaign.RunSpec) {
			s.MemoryOrdering = pol.String()
		})
		t.AddRow(pol.String(), report.F2(st.IPC()),
			report.Int(st.LoadsBlockedByStores), st.AvgSlip().String())
	}
	return t
}

// DynamicDVFSDemo exercises the future direction the paper's conclusion
// points to — application-driven, multiple-domain dynamic clock/voltage
// scaling — using the online issue-queue-occupancy controller: no per-
// application tuning, the hardware finds the idle domains by itself.
func DynamicDVFSDemo(cfg Config) *report.Table {
	t := &report.Table{
		ID:      "Dynamic DVFS (conclusion / future work)",
		Title:   "Online per-domain frequency+voltage controller vs static machines",
		Headers: []string{"benchmark", "rel-perf", "rel-energy", "rel-power", "retunes", "final int/fp/mem slowdown"},
		Note:    "normalized to the full-speed base machine; controller slows domains with near-empty issue queues",
	}
	for _, bench := range []string{"perl", "gcc", "ijpeg", "swim"} {
		base := runOne(cfg, "base", bench, nil)
		dyn := runOne(cfg, "gals", bench, func(s *campaign.RunSpec) {
			s.DynamicDVFS = true
		})
		t.AddRow(bench,
			report.F(base.SimTime.Seconds()/dyn.SimTime.Seconds()),
			report.F(dyn.EnergyPJ/base.EnergyPJ),
			report.F(dyn.AvgPowerWatts()/base.AvgPowerWatts()),
			report.Int(dyn.Retunes),
			fmt.Sprintf("%.2f/%.2f/%.2f",
				dyn.FinalSlowdowns[pipeline.DomInt],
				dyn.FinalSlowdowns[pipeline.DomFP],
				dyn.FinalSlowdowns[pipeline.DomMem]))
	}
	return t
}

// AblationPredictor sweeps the direction predictor on the base machine,
// showing how much of the machine's behaviour rides on prediction quality.
func AblationPredictor(cfg Config, bench string) *report.Table {
	t := &report.Table{
		ID:      "Ablation: branch predictor",
		Title:   fmt.Sprintf("Direction predictor sweep, base machine (%s)", bench),
		Headers: []string{"predictor", "ipc", "mispredict-rate", "misspec"},
		Note:    "gshare is the study's predictor; static schemes bound the damage",
	}
	for _, kind := range []bpred.Kind{bpred.GShare, bpred.Bimodal, bpred.Taken, bpred.NotTaken} {
		st := runOne(cfg, "base", bench, func(s *campaign.RunSpec) {
			s.Predictor = kind.String()
		})
		t.AddRow(kind.String(), report.F2(st.IPC()),
			report.Pct(st.MispredictRate()), report.Pct(st.MisspeculationFrac()))
	}
	return t
}
