package pipeline

import (
	"testing"

	"galsim/internal/workload"
)

// runDyn runs perl (no FP instructions at all) with and without the dynamic
// controller: the FP domain should be detected idle and slowed to the
// configured maximum, saving energy at minimal performance cost.
func TestDynamicDVFSSlowsIdleDomain(t *testing.T) {
	prof, _ := workload.ByName("perl")

	static := NewCore(DefaultConfig(GALSTopology()), prof).Run(80_000)

	cfg := DefaultConfig(GALSTopology())
	cfg.DynamicDVFS = true
	dyn := NewCore(cfg, prof).Run(80_000)

	if dyn.Retunes == 0 {
		t.Fatal("controller never retuned a domain")
	}
	// The probe-and-revert guard is conservative, so the exact endpoint
	// varies; the idle FP cluster must end clearly below full speed while
	// the busy int/mem domains stay at (or near) it.
	if got := dyn.FinalSlowdowns[DomFP]; got < 1.25 {
		t.Errorf("FP domain final slowdown %.2f; controller should have slowed the idle FP cluster", got)
	}
	if got := dyn.FinalSlowdowns[DomInt]; got > 1.7 {
		t.Errorf("int domain slowed to %.2f on an int benchmark", got)
	}
	if dyn.EnergyPJ >= static.EnergyPJ {
		t.Errorf("dynamic DVFS energy %.3g not below static GALS %.3g", dyn.EnergyPJ, static.EnergyPJ)
	}
	perfLoss := dyn.SimTime.Seconds()/static.SimTime.Seconds() - 1
	if perfLoss > 0.10 {
		t.Errorf("dynamic DVFS cost %.1f%% performance on a no-FP benchmark", 100*perfLoss)
	}
}

// A busy domain must not be slowed into the ground: on an FP-heavy
// benchmark the controller should keep the FP domain near full speed.
func TestDynamicDVFSKeepsBusyDomainFast(t *testing.T) {
	prof, _ := workload.ByName("swim")
	cfg := DefaultConfig(GALSTopology())
	cfg.DynamicDVFS = true
	dyn := NewCore(cfg, prof).Run(40_000)
	if got := dyn.FinalSlowdowns[DomFP]; got > 1.7 {
		t.Errorf("FP domain slowed to %.2f on an FP-heavy benchmark", got)
	}

	// And the run completes with commit order intact (Retune rebases clock
	// edges; this checks nothing desynchronized).
	if dyn.Committed != 40_000 {
		t.Errorf("committed %d", dyn.Committed)
	}
}

// TestDynamicDVFSConfigValidation checks the controller's settings against
// the bounds its logic assumes.
func TestDynamicDVFSConfigValidation(t *testing.T) {
	switch {
	case dvfsInterval < 100:
		t.Errorf("dvfs interval %d cycles too short", dvfsInterval)
	case dvfsLowOcc < 0 || dvfsHighOcc <= dvfsLowOcc || dvfsHighOcc > 1:
		t.Errorf("dvfs thresholds low=%v high=%v malformed", dvfsLowOcc, dvfsHighOcc)
	case dvfsStep <= 1:
		t.Errorf("dvfs step %v must exceed 1", dvfsStep)
	case dvfsMaxSlowdown < dvfsStep:
		t.Errorf("dvfs max slowdown %v allows no step of %v", dvfsMaxSlowdown, dvfsStep)
	case dvfsMaxStepPerfLoss < 0 || dvfsMaxStepPerfLoss > 0.5:
		t.Errorf("dvfs per-step perf-loss guard %v outside [0, 0.5]", dvfsMaxStepPerfLoss)
	case dvfsFreezeIntervals < 0:
		t.Errorf("dvfs freeze intervals %d negative", dvfsFreezeIntervals)
	}
}

// Determinism must survive retuning (events are replaced mid-run).
func TestDynamicDVFSDeterministic(t *testing.T) {
	prof, _ := workload.ByName("perl")
	runIt := func() Stats {
		cfg := DefaultConfig(GALSTopology())
		cfg.DynamicDVFS = true
		return NewCore(cfg, prof).Run(20_000)
	}
	a, b := runIt(), runIt()
	if a.SimTime != b.SimTime || a.EnergyPJ != b.EnergyPJ || a.Retunes != b.Retunes {
		t.Errorf("dynamic DVFS nondeterministic: %v/%v, %g/%g, %d/%d",
			a.SimTime, b.SimTime, a.EnergyPJ, b.EnergyPJ, a.Retunes, b.Retunes)
	}
}
