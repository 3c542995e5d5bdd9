package pipeline

import (
	"fmt"
	"math/rand"

	"galsim/internal/simtime"
)

// This file defines the clock-domain topology layer: the five pipeline
// structures of Figure 3(b) (DomainID values — fetch, decode/rename/commit,
// integer, FP, memory) are fixed, but which *clock domain* each structure
// belongs to is configuration. The base machine is the topology that puts
// every structure in one domain under a global clock grid; the paper's GALS
// machine is the topology with one domain per structure; and any other
// partitioning — a merged front end, a unified execution cluster — is just
// another Topology value. Structures that share a domain communicate through
// synchronous pipe latches; structures in different domains communicate
// through mixed-clock FIFOs (or stretchable-clock handshakes).

// LinkClass identifies one class of inter-structure communication link, for
// per-class capacity and synchronizer-depth overrides (Topology.Links).
type LinkClass uint8

// Link classes.
const (
	// LinkClassFetch is the fetch -> decode instruction stream.
	LinkClassFetch LinkClass = iota
	// LinkClassDispatch covers the decode -> execution-cluster dispatch links.
	LinkClassDispatch
	// LinkClassComplete covers the execution-cluster -> decode writeback links.
	LinkClassComplete
	// LinkClassWakeup covers the cross-cluster register wakeup tag links.
	LinkClassWakeup
	// NumLinkClasses is the number of link classes.
	NumLinkClasses
)

// String implements fmt.Stringer.
func (l LinkClass) String() string {
	switch l {
	case LinkClassFetch:
		return "fetch"
	case LinkClassDispatch:
		return "dispatch"
	case LinkClassComplete:
		return "complete"
	case LinkClassWakeup:
		return "wakeup"
	default:
		return fmt.Sprintf("linkclass(%d)", uint8(l))
	}
}

// VoltPoint is one entry of a clock domain's voltage table: the supply
// voltage the domain runs at when its clock is slowed by Slowdown.
type VoltPoint struct {
	Slowdown float64
	Voltage  float64
}

// TopoDomain is one clock domain of a Topology.
type TopoDomain struct {
	// Name labels the domain's clock (diagnostics, slowdown keys).
	Name string
	// Nominal is the domain's full-speed clock period; 0 selects the
	// machine-wide 1 ns.
	Nominal simtime.Duration
	// Scalable marks the domain eligible for the online DVFS controller
	// (which still only runs when Config.DynamicDVFS is set). Only
	// domains consisting solely of execution structures may be scalable:
	// their issue queues provide the occupancy feedback signal.
	Scalable bool
	// VoltTable, when non-empty, replaces the Equation 1 solver for this
	// domain: the supply voltage for a slowdown is interpolated from these
	// points (sorted by ascending slowdown) instead of computed from the
	// delay model. Voltages must not exceed the nominal supply.
	VoltTable []VoltPoint
}

// LinkParams overrides one link class's queue geometry; zero fields keep the
// machine-wide defaults (Config.FIFOCapacity / Config.FIFOSyncEdges, or the
// latch defaults for same-domain links).
type LinkParams struct {
	Capacity  int
	SyncEdges int
}

// Topology assigns the pipeline structures to clock domains.
type Topology struct {
	// Domains lists the clock domains. Order is semantic: it fixes the
	// random starting-phase draws, the tick priority ranking of simultaneous
	// edges, and the DVFS controller's scan order.
	Domains []TopoDomain
	// Of maps each pipeline structure to its domain index.
	Of [NumDomains]int
	// GlobalGrid charges the global clock distribution grid every cycle: the
	// synchronous chip's chip-wide clock network (21264-style hierarchy).
	// GALS-style machines have only the per-structure local grids.
	GlobalGrid bool
	// Links holds per-class link overrides.
	Links [NumLinkClasses]LinkParams
}

// kind labels the topology for statistics: a single clock domain is a
// synchronous ("base"-kind) machine, anything partitioned is GALS-kind.
func (t Topology) kind() Kind {
	if len(t.Domains) == 1 {
		return Base
	}
	return GALS
}

// Synchronous reports whether the whole machine shares one clock.
func (t Topology) Synchronous() bool { return len(t.Domains) == 1 }

// Cross reports whether a link from structure a to structure b crosses a
// clock-domain boundary.
func (t Topology) Cross(a, b DomainID) bool { return t.Of[a] != t.Of[b] }

// structuresOf returns the structures owned by domain g, in DomainID order.
func (t Topology) structuresOf(g int) []DomainID {
	var out []DomainID
	for d := DomainID(0); d < NumDomains; d++ {
		if t.Of[d] == g {
			out = append(out, d)
		}
	}
	return out
}

// commitSideFirst is the canonical intra-instant ordering of simultaneous
// clock edges over the structures: commit side first. Any fixed order is
// legal for truly asynchronous clocks; this one is the order the golden runs
// were taken with.
var commitSideFirst = [NumDomains]DomainID{DomDecode, DomInt, DomFP, DomMem, DomFetch}

// firingOrder lists the clock domains in the order their simultaneous edges
// fire: each domain takes the place of its most commit-side structure. Every
// domain owns at least one structure, so every domain appears exactly once.
func (t Topology) firingOrder() []int {
	seen := make([]bool, len(t.Domains))
	order := make([]int, 0, len(t.Domains))
	for _, d := range commitSideFirst {
		if g := t.Of[d]; !seen[g] {
			seen[g] = true
			order = append(order, g)
		}
	}
	return order
}

// Validate reports the first structural problem with the topology. Voltage
// ceilings are checked by Config.Validate, which knows the DVFS model.
func (t Topology) Validate() error {
	if len(t.Domains) == 0 {
		return fmt.Errorf("pipeline: topology has no clock domains (the zero Topology is not a machine; start from a machine spec's topology)")
	}
	if len(t.Domains) > int(NumDomains) {
		return fmt.Errorf("pipeline: topology has %d clock domains for %d structures; every domain must own at least one structure",
			len(t.Domains), NumDomains)
	}
	if t.GlobalGrid && len(t.Domains) != 1 {
		return fmt.Errorf("pipeline: a global clock grid implies a single clock domain (got %d); partitioned machines have only local grids", len(t.Domains))
	}
	seen := map[string]bool{}
	for g, dom := range t.Domains {
		if dom.Name == "" {
			return fmt.Errorf("pipeline: clock domain %d has no name", g)
		}
		if seen[dom.Name] {
			return fmt.Errorf("pipeline: duplicate clock domain name %q", dom.Name)
		}
		seen[dom.Name] = true
		if dom.Nominal < 0 {
			return fmt.Errorf("pipeline: clock domain %q nominal period %v is negative", dom.Name, dom.Nominal)
		}
		for i, p := range dom.VoltTable {
			if p.Slowdown < 1 {
				return fmt.Errorf("pipeline: clock domain %q voltage point %d: slowdown %v < 1", dom.Name, i, p.Slowdown)
			}
			if i > 0 && p.Slowdown <= dom.VoltTable[i-1].Slowdown {
				return fmt.Errorf("pipeline: clock domain %q voltage table must have strictly increasing slowdowns", dom.Name)
			}
			if p.Voltage <= 0 {
				return fmt.Errorf("pipeline: clock domain %q voltage point %d: voltage %v must be positive", dom.Name, i, p.Voltage)
			}
		}
	}
	used := make([]bool, len(t.Domains))
	for d := DomainID(0); d < NumDomains; d++ {
		g := t.Of[d]
		if g < 0 || g >= len(t.Domains) {
			return fmt.Errorf("pipeline: structure %v assigned to domain index %d (have %d domains)", d, g, len(t.Domains))
		}
		used[g] = true
	}
	for g, ok := range used {
		if !ok {
			return fmt.Errorf("pipeline: clock domain %q owns no pipeline structure", t.Domains[g].Name)
		}
	}
	for g, dom := range t.Domains {
		if !dom.Scalable {
			continue
		}
		for _, d := range t.structuresOf(g) {
			if d != DomInt && d != DomFP && d != DomMem {
				return fmt.Errorf("pipeline: clock domain %q is marked scalable but owns structure %v; only execution structures (int, fp, mem) provide the issue-queue feedback the DVFS controller needs", dom.Name, d)
			}
		}
	}
	for cl := LinkClass(0); cl < NumLinkClasses; cl++ {
		lp := t.Links[cl]
		if lp.Capacity < 0 || lp.SyncEdges < 0 {
			return fmt.Errorf("pipeline: link class %v capacity (%d) and sync edges (%d) must be non-negative",
				cl, lp.Capacity, lp.SyncEdges)
		}
	}
	return nil
}

// nominalPeriod returns domain g's full-speed period.
func (t Topology) nominalPeriod(g int) simtime.Duration {
	if p := t.Domains[g].Nominal; p > 0 {
		return p
	}
	return nominalPeriod
}

// randomPhases derives the per-clock-domain starting phases: zero for a
// fully synchronous machine (and under the ZeroPhases ablation), otherwise
// one uniform draw per domain in declaration order (§4.2: "the starting
// phase of each clock was set to a random value").
func (t Topology) randomPhases(cfg Config, periods []simtime.Duration) []simtime.Time {
	phases := make([]simtime.Time, len(t.Domains))
	if t.Synchronous() || cfg.ZeroPhases {
		return phases
	}
	rng := rand.New(rand.NewSource(cfg.PhaseSeed))
	for g := range phases {
		phases[g] = simtime.Time(rng.Int63n(int64(periods[g])))
	}
	return phases
}
