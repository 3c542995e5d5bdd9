package campaign

import (
	"context"
	"fmt"
	"log/slog"

	"galsim/internal/machine"
	"galsim/internal/pipeline"
	"galsim/internal/workload"
)

// Sweep declares a grid of runs: the cross product of benchmarks, machines,
// slowdown assignments and seeds, every point sharing the scalar settings.
// The zero value of each scalar selects the same default as RunSpec.
type Sweep struct {
	// Benchmarks to run; empty means every registered benchmark.
	Benchmarks []string `json:"benchmarks,omitempty"`
	// Machines to run, by name: built-ins, or (through the galsimd service)
	// previously uploaded machine specs. Empty means both "base" and "gals"
	// unless MachineSpecs is set.
	Machines []string `json:"machines,omitempty"`
	// MachineSpecs lists inline user-defined machines to cross in alongside
	// Machines: the partitioning-study axis.
	MachineSpecs []machine.Spec `json:"machine_specs,omitempty"`
	// SlowdownGrid lists slowdown assignments to cross in; empty means one
	// full-speed point. Each unit keeps only the entries that name one of
	// its own machine's clock domains (plus "all"), so a grid written for
	// one machine's domains crosses cleanly with others — e.g. a sweep over
	// both built-ins naturally yields a full-speed base reference against
	// each slowed GALS point (the base machine's single clock answers only
	// to "all").
	SlowdownGrid []map[string]float64 `json:"slowdown_grid,omitempty"`
	// WorkloadSeeds to cross in; empty means the default seed.
	WorkloadSeeds []int64 `json:"workload_seeds,omitempty"`
	// PhaseSeeds to cross in; empty means the default seed.
	PhaseSeeds []int64 `json:"phase_seeds,omitempty"`
	// InstructionsGrid lists committed-instruction budgets to cross in —
	// convergence studies over one configuration. Empty means the single
	// scalar Instructions value. Grid points differing only in budget share
	// their whole simulated prefix, which Warmup exploits.
	InstructionsGrid []uint64 `json:"instructions_grid,omitempty"`

	// Scalar settings shared by every unit (see RunSpec).
	Instructions   uint64 `json:"instructions,omitempty"`
	FreqOnly       bool   `json:"freq_only,omitempty"`
	MemoryOrdering string `json:"memory_ordering,omitempty"`
	LinkStyle      string `json:"link_style,omitempty"`
	DynamicDVFS    bool   `json:"dynamic_dvfs,omitempty"`

	// Warmup, when non-zero, enables warm-up sharing on backends that
	// support it: units sharing a warm identity (same configuration, any
	// budget) simulate their first Warmup instructions once, fork the
	// snapshot, and resume per unit. Execution tuning only — it never joins
	// unit identities, and results are byte-identical with or without it.
	Warmup uint64 `json:"warmup,omitempty"`
}

// MaxUnits bounds a single sweep expansion: a backstop against accidental
// cross products (a few seed lists can multiply into billions of units)
// far above any campaign a process could actually simulate.
const MaxUnits = 1 << 20

// machinePoint is one entry of the machine axis: a name or an inline spec.
type machinePoint struct {
	name string
	spec *machine.Spec
}

func (s Sweep) axes() (benchmarks []string, machines []machinePoint, grid []map[string]float64, wseeds, pseeds []int64, instrs []uint64) {
	benchmarks = s.Benchmarks
	if len(benchmarks) == 0 {
		benchmarks = Benchmarks()
	}
	names := s.Machines
	if len(names) == 0 && len(s.MachineSpecs) == 0 {
		names = machine.BuiltinNames()
	}
	for _, n := range names {
		machines = append(machines, machinePoint{name: n})
	}
	for i := range s.MachineSpecs {
		machines = append(machines, machinePoint{spec: &s.MachineSpecs[i]})
	}
	grid = s.SlowdownGrid
	if len(grid) == 0 {
		grid = []map[string]float64{nil}
	}
	wseeds = s.WorkloadSeeds
	if len(wseeds) == 0 {
		wseeds = []int64{defaultWorkloadSeed}
	}
	pseeds = s.PhaseSeeds
	if len(pseeds) == 0 {
		pseeds = []int64{defaultPhaseSeed}
	}
	instrs = s.InstructionsGrid
	if len(instrs) == 0 {
		instrs = []uint64{s.Instructions}
	}
	return benchmarks, machines, grid, wseeds, pseeds, instrs
}

// NumUnits returns the sweep's expansion size without materializing it, so
// servers can enforce limits before any allocation or validation happens.
func (s Sweep) NumUnits() int {
	benchmarks, machines, grid, wseeds, pseeds, instrs := s.axes()
	n := 1
	for _, axis := range []int{len(benchmarks), len(machines), len(grid), len(wseeds), len(pseeds), len(instrs)} {
		if axis == 0 {
			return 0
		}
		if n > MaxUnits/axis {
			return MaxUnits + 1 // saturate: already over any acceptable size
		}
		n *= axis
	}
	return n
}

// Units expands the sweep into run units in deterministic order: benchmarks
// outermost, then machines, slowdown grid points, workload seeds, phase
// seeds, instruction budgets innermost. Every unit is validated before any
// is returned.
func (s Sweep) Units() ([]RunSpec, error) {
	if n := s.NumUnits(); n > MaxUnits {
		return nil, fmt.Errorf("campaign: sweep expands to more than %d units; split it", MaxUnits)
	}
	benchmarks, machines, grid, wseeds, pseeds, instrs := s.axes()
	units := make([]RunSpec, 0, len(benchmarks)*len(machines)*len(grid)*len(wseeds)*len(pseeds)*len(instrs))
	// Resolve each machine point once, to scope grid entries and the
	// dynamic-DVFS flag to it; an unresolvable machine skips the scoping
	// and fails unit validation below with the real error.
	resolved := make([]*machine.Spec, len(machines))
	anyResolved := false
	for i, m := range machines {
		if m.spec != nil {
			if err := m.spec.Validate(); err == nil {
				resolved[i] = m.spec
			}
		} else if sp, err := machine.ByName(m.name); err == nil {
			resolved[i] = &sp
		}
		anyResolved = anyResolved || resolved[i] != nil
	}
	// A grid key must name a clock domain of at least one swept machine (or
	// "all"): per-machine scoping drops foreign keys silently, so a typo'd
	// domain would otherwise vanish instead of failing loudly.
	if anyResolved {
		valid := map[string]bool{"all": true}
		var domains []string
		for _, ms := range resolved {
			if ms == nil {
				continue
			}
			for _, d := range ms.DomainNames() {
				if !valid[d] {
					valid[d] = true
					domains = append(domains, d)
				}
			}
		}
		for _, slow := range grid {
			for name := range slow {
				if !valid[name] {
					return nil, fmt.Errorf("campaign: sweep slowdown grid names clock domain %q, which belongs to none of the swept machines (their domains: %v, or \"all\" for a uniform slowdown)",
						name, domains)
				}
			}
		}
	}
	for _, b := range benchmarks {
		for mi, m := range machines {
			var ms machine.Spec
			if resolved[mi] != nil {
				ms = *resolved[mi]
			}
			for _, slow := range grid {
				if resolved[mi] != nil {
					slow = scopedSlowdowns(ms, slow)
				}
				for _, ws := range wseeds {
					for _, ps := range pseeds {
						for _, in := range instrs {
							u := RunSpec{
								Benchmark:      b,
								Machine:        m.name,
								MachineSpec:    m.spec,
								Instructions:   in,
								Slowdowns:      slow,
								FreqOnly:       s.FreqOnly,
								WorkloadSeed:   ws,
								PhaseSeed:      ps,
								MemoryOrdering: s.MemoryOrdering,
								LinkStyle:      s.LinkStyle,
								DynamicDVFS:    s.DynamicDVFS && resolved[mi] != nil && ms.DynamicCapable(),
							}
							if err := u.Validate(); err != nil {
								return nil, fmt.Errorf("campaign: sweep unit %d: %w", len(units), err)
							}
							units = append(units, u)
						}
					}
				}
			}
		}
	}
	return units, nil
}

// scopedSlowdowns keeps the grid entries addressed to this machine: "all"
// plus keys naming one of its clock domains.
func scopedSlowdowns(ms machine.Spec, slow map[string]float64) map[string]float64 {
	valid := map[string]bool{"all": true}
	for _, d := range ms.DomainNames() {
		valid[d] = true
	}
	var out map[string]float64
	for name, f := range slow {
		if !valid[name] {
			continue
		}
		if out == nil {
			out = make(map[string]float64, len(slow))
		}
		out[name] = f
	}
	return out
}

// Benchmarks returns the registered benchmark names (the sweep default).
func Benchmarks() []string { return workload.Names() }

// Summary is the JSON-friendly digest of one completed unit: the headline
// metrics of the paper's evaluation. Field order (and therefore encoded
// byte order) is fixed, which the determinism tests rely on.
type Summary struct {
	Benchmark            string  `json:"benchmark"`
	Machine              string  `json:"machine"`
	Committed            uint64  `json:"committed"`
	SimSeconds           float64 `json:"sim_seconds"`
	IPC                  float64 `json:"ipc"`
	AvgSlipNs            float64 `json:"avg_slip_ns"`
	FIFOSlipShare        float64 `json:"fifo_slip_share"`
	MisspeculationFrac   float64 `json:"misspeculation_frac"`
	BranchMispredictRate float64 `json:"branch_mispredict_rate"`
	EnergyJoules         float64 `json:"energy_joules"`
	PowerWatts           float64 `json:"power_watts"`
	L1IHitRate           float64 `json:"l1i_hit_rate"`
	L1DHitRate           float64 `json:"l1d_hit_rate"`
	L2HitRate            float64 `json:"l2_hit_rate"`
	Retunes              uint64  `json:"retunes,omitempty"`
}

// Summarize digests one unit's stats.
func Summarize(spec RunSpec, st pipeline.Stats) Summary { return spec.Canonical().summary(st) }

// summary is Summarize of a canonical spec.
func (s RunSpec) summary(st pipeline.Stats) Summary {
	return Summary{
		Benchmark:            s.WorkloadName(),
		Machine:              s.MachineName(),
		Committed:            st.Committed,
		SimSeconds:           st.SimTime.Seconds(),
		IPC:                  st.IPC(),
		AvgSlipNs:            st.AvgSlip().Nanoseconds(),
		FIFOSlipShare:        st.FIFOSlipShare(),
		MisspeculationFrac:   st.MisspeculationFrac(),
		BranchMispredictRate: st.MispredictRate(),
		EnergyJoules:         st.EnergyJoules(),
		PowerWatts:           st.AvgPowerWatts(),
		L1IHitRate:           st.L1I.HitRate(),
		L1DHitRate:           st.L1D.HitRate(),
		L2HitRate:            st.L2.HitRate(),
		Retunes:              st.Retunes,
	}
}

// UnitResult pairs a unit with its digest for aggregated output.
type UnitResult struct {
	Key     string  `json:"key"`
	Spec    RunSpec `json:"spec"`
	Summary Summary `json:"summary"`
}

// RunSweepOn expands the sweep, executes every unit on the given backend —
// the local engine or a distributed cluster coordinator — and returns the
// aggregated results in expansion order. Results are merged by unit index,
// never by completion order, so the output is byte-identical across
// backends and worker counts.
func RunSweepOn(ctx context.Context, b Backend, s Sweep) ([]UnitResult, error) {
	return RunSweepProgress(ctx, b, s, nil)
}

// RunSweepProgress is RunSweepOn with a live progress callback (see
// ProgressFunc); fn may be nil. When the sweep sets Warmup and the backend
// supports warm-up sharing (WarmBackend), units sharing a warm identity
// fork one warmed snapshot instead of each re-simulating the prefix; the
// aggregated output is byte-identical either way.
func RunSweepProgress(ctx context.Context, b Backend, s Sweep, fn ProgressFunc) ([]UnitResult, error) {
	units, err := s.Units()
	if err != nil {
		return nil, err
	}
	var stats []pipeline.Stats
	if s.Warmup > 0 {
		if wb, ok := b.(WarmBackend); ok {
			stats, err = wb.RunAllWarm(ctx, units, s.Warmup, fn)
		} else {
			slog.Default().Info("campaign: backend does not support warm-up sharing; running the sweep unshared",
				"units", len(units), "warmup", s.Warmup)
			stats, err = RunAllOn(ctx, b, units, fn)
		}
	} else {
		stats, err = RunAllOn(ctx, b, units, fn)
	}
	if err != nil {
		return nil, err
	}
	out := make([]UnitResult, len(units))
	for i, u := range units {
		c := u.Canonical()
		out[i] = UnitResult{Key: c.key(), Spec: c, Summary: c.summary(stats[i])}
	}
	return out, nil
}
