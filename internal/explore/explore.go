// Package explore searches the space of machine partitionings — the
// paper's core question, asked mechanically. A declarative SearchSpec
// names a search space over machine.Spec (which pipeline structures share
// a clock domain, each domain's nominal frequency and DVFS policy, the
// synchronization-FIFO geometry), a strategy (exhaustive grid, random
// sampling, hill-climbing, or an evolutionary loop with mutation and
// crossover over canonicalized genomes), and a multi-objective fitness
// (energy, delay, power — weighted scalarization for selection, Pareto
// dominance ranking for output). Generations are scored by expanding the
// population into one campaign.Sweep and fanning it through the existing
// campaign.Backend seam, so evaluation is transparently parallel on a
// local engine or a galsim-fleet, duplicate and builtin-equal mutants hit
// the content-addressed result cache for free, and Sweep.Warmup prefix
// sharing rides along unchanged.
//
// Everything is deterministic: the RNG is a seeded splitmix64, strategies
// iterate in fixed orders (never over Go maps), and fitness aggregation
// follows sweep expansion order, so the same SearchSpec and seed produce
// a byte-identical Result on any backend at any worker count.
package explore

import (
	"bytes"
	"fmt"
	"sort"

	"galsim/internal/httpjson"
	"galsim/internal/machine"
	"galsim/internal/workload"
)

// Strategy names accepted by SearchSpec.Strategy.
const (
	StrategyGrid         = "grid"
	StrategyRandom       = "random"
	StrategyHillClimb    = "hillclimb"
	StrategyEvolutionary = "evolutionary"
)

// StrategyNames lists the search strategies, in documentation order. The
// returned slice is a fresh copy on every call.
func StrategyNames() []string {
	return []string{StrategyGrid, StrategyRandom, StrategyHillClimb, StrategyEvolutionary}
}

// Objective names accepted by FitnessSpec.Objectives.
const (
	// ObjDelay is total simulated time across the spec's workloads (lower
	// is faster).
	ObjDelay = "delay"
	// ObjEnergy is total energy in joules across the spec's workloads.
	ObjEnergy = "energy"
	// ObjPower is the peak average power draw across the spec's
	// workloads: the worst workload's watts, the grid-provisioning proxy.
	ObjPower = "power"
)

// ObjectiveNames lists the fitness objectives in canonical order. The
// returned slice is a fresh copy on every call.
func ObjectiveNames() []string { return []string{ObjDelay, ObjEnergy, ObjPower} }

// Anti-DoS ceilings. Search specs are untrusted input (they arrive over
// HTTP through tooling), and a few small integers can multiply into an
// unbounded amount of simulation, so every budget axis has a cap and
// violations carry a typed LimitError.
const (
	capPopulation  = 512
	capGenerations = 4096
	capEvaluations = 1 << 16
	capWorkloads   = 64
	capFrequencies = 32
	capLinkChoices = 16
	// capGridSpace bounds the exhaustive strategy's enumeration: grid
	// walks the whole space, so the space itself must be small.
	capGridSpace = 1 << 20
)

// Defaults applied by SearchSpec.Canonical.
const (
	defaultPopulation  = 16
	defaultGenerations = 20
	defaultSeed        = 1
)

// LimitError reports a search spec that exceeds one of the package's
// anti-DoS ceilings. It is errors.As-able so callers can map it to a 4xx.
type LimitError struct {
	What string // the axis, e.g. "population"
	Got  int
	Max  int
}

// Error implements error.
func (e *LimitError) Error() string {
	return fmt.Sprintf("explore: %s %d exceeds the maximum of %d", e.What, e.Got, e.Max)
}

// SpaceSpec declares the search space: the axes a candidate machine may
// vary along. The partitioning axis (which structures share a clock
// domain) is always searched; the zero value searches partitionings alone
// at nominal frequency with static clocks and default link geometry.
type SpaceSpec struct {
	// FrequenciesGHz lists the nominal frequencies a domain may choose
	// from. Empty means [1.0], the machine nominal.
	FrequenciesGHz []float64 `json:"frequencies_ghz,omitempty"`
	// DVFS, when true, adds the dynamic-scaling policy to the space:
	// domains made solely of execution structures (int, fp, mem) may be
	// declared dynamic, and candidate runs enable the online DVFS
	// controller (scoped automatically to capable machines).
	DVFS bool `json:"dvfs,omitempty"`
	// LinkDepths lists synchronization-FIFO depth overrides to search
	// (applied to every link class); 0 keeps the machine default and is
	// always in the space.
	LinkDepths []int `json:"link_depths,omitempty"`
	// SyncEdges lists flag-synchronizer depth overrides to search
	// (applied to every link class); 0 keeps the machine default and is
	// always in the space.
	SyncEdges []int `json:"sync_edges,omitempty"`
}

// BudgetSpec bounds the search.
type BudgetSpec struct {
	// Population is the number of candidates proposed per generation.
	// Default 16, capped at 512.
	Population int `json:"population,omitempty"`
	// MaxGenerations stops the search after this many generations.
	// Default 20, capped at 4096.
	MaxGenerations int `json:"max_generations,omitempty"`
	// MaxEvaluations stops the search after this many candidate
	// evaluations (a candidate scored over every workload counts once).
	// Default Population×MaxGenerations, capped at 65536.
	MaxEvaluations int `json:"max_evaluations,omitempty"`
}

// FitnessSpec selects and weights the objectives.
type FitnessSpec struct {
	// Objectives names the objectives to optimize (see ObjectiveNames).
	// Empty means all of them. Order does not matter; Canonical sorts
	// into canonical order.
	Objectives []string `json:"objectives,omitempty"`
	// Weights, per objective, steer the scalarized fitness used for
	// selection (the Pareto ranking ignores them). Missing entries weigh
	// 1; weights must be positive.
	Weights map[string]float64 `json:"weights,omitempty"`
}

// SearchSpec is a complete search declaration: the JSON form is the wire
// format accepted by galsim-explore -spec and galsim.Explore.
type SearchSpec struct {
	// Name labels the search in results and logs.
	Name string `json:"name,omitempty"`
	// Seed seeds the search RNG; 0 selects 1. Same spec + same seed =
	// byte-identical result.
	Seed int64 `json:"seed,omitempty"`
	// Strategy picks the search strategy (see StrategyNames); empty
	// selects "evolutionary".
	Strategy string `json:"strategy,omitempty"`
	// Workloads lists the benchmarks every candidate is scored on; empty
	// means ["gcc"].
	Workloads []string `json:"workloads,omitempty"`
	// Instructions is the committed-instruction budget per run; 0 selects
	// the campaign default.
	Instructions uint64 `json:"instructions,omitempty"`
	// Warmup, when non-zero, asks warm-capable backends to share each
	// run's first Warmup instructions across a generation (pure execution
	// tuning; results are byte-identical either way).
	Warmup uint64 `json:"warmup,omitempty"`

	Space   SpaceSpec   `json:"space,omitempty"`
	Budget  BudgetSpec  `json:"budget,omitempty"`
	Fitness FitnessSpec `json:"fitness,omitempty"`
}

// Parse decodes a SearchSpec from JSON, rejecting unknown fields — a
// typo'd axis name must not silently search a smaller space.
func Parse(data []byte) (SearchSpec, error) {
	var s SearchSpec
	if err := httpjson.DecodeStrict(bytes.NewReader(data), &s); err != nil {
		return SearchSpec{}, fmt.Errorf("explore: parse search spec: %w", err)
	}
	return s, nil
}

// Canonical returns the spec with defaults filled and axes normalized:
// frequency/link choices deduplicated and sorted, objectives sorted into
// canonical order, budget defaults applied. Canonical does not validate;
// it never fails, so it can normalize a bad spec for error reporting.
func (s SearchSpec) Canonical() SearchSpec {
	c := s
	if c.Seed == 0 {
		c.Seed = defaultSeed
	}
	if c.Strategy == "" {
		c.Strategy = StrategyEvolutionary
	}
	if len(c.Workloads) == 0 {
		c.Workloads = []string{"gcc"}
	} else {
		c.Workloads = append([]string(nil), c.Workloads...)
	}
	c.Space = c.Space.canonical()
	if c.Budget.Population == 0 {
		c.Budget.Population = defaultPopulation
	}
	if c.Budget.MaxGenerations == 0 {
		c.Budget.MaxGenerations = defaultGenerations
	}
	if c.Budget.MaxEvaluations == 0 &&
		c.Budget.Population > 0 && c.Budget.MaxGenerations > 0 &&
		c.Budget.Population <= capPopulation && c.Budget.MaxGenerations <= capGenerations {
		c.Budget.MaxEvaluations = min(c.Budget.Population*c.Budget.MaxGenerations, capEvaluations)
	}
	c.Fitness = c.Fitness.canonical()
	return c
}

func (sp SpaceSpec) canonical() SpaceSpec {
	c := sp
	c.FrequenciesGHz = dedupeSortedFloats(sp.FrequenciesGHz)
	if len(c.FrequenciesGHz) == 0 {
		c.FrequenciesGHz = []float64{1.0}
	}
	c.LinkDepths = dedupeSortedInts(sp.LinkDepths, true)
	c.SyncEdges = dedupeSortedInts(sp.SyncEdges, true)
	return c
}

func (f FitnessSpec) canonical() FitnessSpec {
	c := f
	if len(c.Objectives) == 0 {
		c.Objectives = ObjectiveNames()
	} else {
		c.Objectives = append([]string(nil), c.Objectives...)
		sort.Strings(c.Objectives)
	}
	if len(c.Weights) > 0 {
		w := make(map[string]float64, len(c.Weights))
		for k, v := range c.Weights {
			w[k] = v
		}
		c.Weights = w
	}
	return c
}

// dedupeSortedFloats sorts and deduplicates, dropping nothing else.
func dedupeSortedFloats(in []float64) []float64 {
	if len(in) == 0 {
		return nil
	}
	out := append([]float64(nil), in...)
	sort.Float64s(out)
	j := 0
	for i := 1; i < len(out); i++ {
		if out[i] != out[j] {
			j++
			out[j] = out[i]
		}
	}
	return out[:j+1]
}

// dedupeSortedInts sorts and deduplicates; withZero forces 0 (the
// keep-machine-default choice) into the result.
func dedupeSortedInts(in []int, withZero bool) []int {
	out := append([]int(nil), in...)
	if withZero {
		out = append(out, 0)
	}
	if len(out) == 0 {
		return nil
	}
	sort.Ints(out)
	j := 0
	for i := 1; i < len(out); i++ {
		if out[i] != out[j] {
			j++
			out[j] = out[i]
		}
	}
	return out[:j+1]
}

// Validate checks the spec against the package ceilings and the machine
// model. It canonicalizes internally, so it accepts exactly the specs
// Explorer.Run accepts.
func (s SearchSpec) Validate() error {
	c := s.Canonical()
	switch c.Strategy {
	case StrategyGrid, StrategyRandom, StrategyHillClimb, StrategyEvolutionary:
	default:
		return fmt.Errorf("explore: unknown strategy %q (strategies: %v)", c.Strategy, StrategyNames())
	}
	if len(c.Workloads) > capWorkloads {
		return &LimitError{What: "workloads", Got: len(c.Workloads), Max: capWorkloads}
	}
	known := map[string]bool{}
	for _, name := range workload.Names() {
		known[name] = true
	}
	seen := map[string]bool{}
	for _, w := range c.Workloads {
		if !known[w] {
			return fmt.Errorf("explore: unknown workload %q (workloads: %v)", w, workload.Names())
		}
		if seen[w] {
			return fmt.Errorf("explore: duplicate workload %q", w)
		}
		seen[w] = true
	}
	if err := c.Space.validate(); err != nil {
		return err
	}
	if err := c.Budget.validate(); err != nil {
		return err
	}
	if err := c.Fitness.validate(); err != nil {
		return err
	}
	if c.Strategy == StrategyGrid {
		if n := gridSize(c.Space); n < 0 || n > capGridSpace {
			got := n
			if got < 0 {
				got = capGridSpace + 1
			}
			return &LimitError{What: "grid search space", Got: got, Max: capGridSpace}
		}
	}
	return nil
}

func (sp SpaceSpec) validate() error {
	if len(sp.FrequenciesGHz) > capFrequencies {
		return &LimitError{What: "frequency choices", Got: len(sp.FrequenciesGHz), Max: capFrequencies}
	}
	for _, f := range sp.FrequenciesGHz {
		if !(f >= machine.MinFreqGHz && f <= machine.MaxFreqGHz) {
			return fmt.Errorf("explore: frequency %v GHz outside [%v, %v]", f, machine.MinFreqGHz, machine.MaxFreqGHz)
		}
	}
	if len(sp.LinkDepths) > capLinkChoices {
		return &LimitError{What: "link depth choices", Got: len(sp.LinkDepths), Max: capLinkChoices}
	}
	for _, d := range sp.LinkDepths {
		if d < 0 || d > machine.MaxLinkDepth {
			return fmt.Errorf("explore: link depth %d outside [0, %d]", d, machine.MaxLinkDepth)
		}
	}
	if len(sp.SyncEdges) > capLinkChoices {
		return &LimitError{What: "sync edge choices", Got: len(sp.SyncEdges), Max: capLinkChoices}
	}
	for _, e := range sp.SyncEdges {
		if e < 0 || e > machine.MaxSyncEdges {
			return fmt.Errorf("explore: sync edges %d outside [0, %d]", e, machine.MaxSyncEdges)
		}
	}
	return nil
}

func (b BudgetSpec) validate() error {
	if b.Population < 0 || b.MaxGenerations < 0 || b.MaxEvaluations < 0 {
		return fmt.Errorf("explore: negative budget")
	}
	if b.Population > capPopulation {
		return &LimitError{What: "population", Got: b.Population, Max: capPopulation}
	}
	if b.MaxGenerations > capGenerations {
		return &LimitError{What: "generations", Got: b.MaxGenerations, Max: capGenerations}
	}
	if b.MaxEvaluations > capEvaluations {
		return &LimitError{What: "evaluations", Got: b.MaxEvaluations, Max: capEvaluations}
	}
	return nil
}

func (f FitnessSpec) validate() error {
	known := map[string]bool{}
	for _, o := range ObjectiveNames() {
		known[o] = true
	}
	seen := map[string]bool{}
	for _, o := range f.Objectives {
		if !known[o] {
			return fmt.Errorf("explore: unknown objective %q (objectives: %v)", o, ObjectiveNames())
		}
		if seen[o] {
			return fmt.Errorf("explore: duplicate objective %q", o)
		}
		seen[o] = true
	}
	for name, w := range f.Weights {
		if !known[name] {
			return fmt.Errorf("explore: weight for unknown objective %q (objectives: %v)", name, ObjectiveNames())
		}
		if !(w > 0) || w > 1e9 {
			return fmt.Errorf("explore: weight for %q must be in (0, 1e9], got %v", name, w)
		}
	}
	return nil
}
