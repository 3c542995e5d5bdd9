// Package pipeline implements the simulated processor: the 8-stage,
// 4-wide out-of-order superscalar machine of the paper's Tables 2 and 3.
//
// The five pipeline structures of Figure 3(b) are fixed — (1) fetch:
// I-cache + branch prediction, (2) decode/rename/commit, (3) integer issue
// queue + ALUs, (4) FP issue queue + FP units, (5) memory issue queue +
// D-cache + L2. How they are clocked is not: every machine is built from a
// Topology (Config.Topology) that assigns each structure to a clock domain.
// Structures sharing a domain communicate through synchronous pipe latches;
// structures in different domains communicate through mixed-clock FIFOs (or
// stretchable-clock handshakes), and each domain has its own local clock
// grid, its own (possibly scaled) frequency and its own supply voltage.
//
// The paper's two machines are two topologies over identical structural
// parameters (package machine builds them): the base machine, one clock
// driving everything through a global grid plus five local grids
// (21264-style hierarchy), and the GALS machine, one domain per structure
// and no global grid. Any other partitioning — a merged front end, a
// unified execution cluster — is just another Topology.
package pipeline

import (
	"fmt"

	"galsim/internal/bpred"
	"galsim/internal/cache"
	"galsim/internal/dvfs"
	"galsim/internal/power"
	"galsim/internal/simtime"
)

// LinkStyle selects the inter-domain communication mechanism of the GALS
// machine.
type LinkStyle uint8

// Link styles.
const (
	// LinkFIFO uses Chelcea-Nowick style mixed-clock FIFOs (§3.2, the
	// paper's choice: low latency and full steady-state throughput).
	LinkFIFO LinkStyle = iota
	// LinkStretch uses stretchable-clock handshakes (§3.2's alternative):
	// each transaction occupies the channel for a full handshake, so
	// communication rate bounds effective frequency.
	LinkStretch
)

// String implements fmt.Stringer.
func (l LinkStyle) String() string {
	if l == LinkStretch {
		return "stretch"
	}
	return "fifo"
}

// MemDisambiguation selects the memory cluster's load/store ordering
// policy (the LSQ model).
type MemDisambiguation uint8

// Disambiguation policies.
const (
	// DisambigPerfect lets loads issue as soon as their address operand is
	// ready: an oracle memory-dependence predictor (the study's model; with
	// trace-driven addressing no load ever reads a stale value).
	DisambigPerfect MemDisambiguation = iota
	// DisambigConservative blocks a load while ANY older store in the
	// memory issue queue has not yet computed its address.
	DisambigConservative
	// DisambigAddrMatch blocks a load only while an older un-issued store
	// to the same 8-byte block sits in the queue (idealized store-set
	// behaviour).
	DisambigAddrMatch
)

// String implements fmt.Stringer.
func (m MemDisambiguation) String() string {
	switch m {
	case DisambigConservative:
		return "conservative"
	case DisambigAddrMatch:
		return "addr-match"
	default:
		return "perfect"
	}
}

// Kind labels a run's statistics with its machine class: a single clock
// domain is the synchronous (Base) class, anything partitioned is GALS.
type Kind uint8

// Machine classes.
const (
	Base Kind = iota
	GALS
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	if k == Base {
		return "base"
	}
	return "gals"
}

// DomainID names the five logical synchronous blocks. In the base machine
// they all share one physical clock; in the GALS machine each has its own.
type DomainID uint8

// Clock domains, per Figure 3(b).
const (
	DomFetch DomainID = iota
	DomDecode
	DomInt
	DomFP
	DomMem
	NumDomains
)

// String implements fmt.Stringer.
func (d DomainID) String() string {
	switch d {
	case DomFetch:
		return "fetch"
	case DomDecode:
		return "decode"
	case DomInt:
		return "int"
	case DomFP:
		return "fp"
	case DomMem:
		return "mem"
	default:
		return fmt.Sprintf("domain(%d)", uint8(d))
	}
}

// Config parameterizes a machine. The zero value is not usable; start from
// DefaultConfig.
type Config struct {
	// Topology assigns the five pipeline structures to clock domains and
	// carries per-domain and per-link-class settings. It is required: the
	// zero Topology has no clock domains and fails Validate.
	Topology Topology

	// Widths (instructions per cycle).
	FetchWidth  int
	DecodeWidth int
	RenameWidth int
	CommitWidth int

	// Issue resources per execution domain.
	IntIssueWidth int // integer ALUs
	FPIssueWidth  int // FP units
	MemIssueWidth int // D-cache ports

	// Window sizes (Table 3).
	IntIQSize int
	FPIQSize  int
	MemIQSize int
	ROBSize   int

	// Physical register file sizes. Table 3 specifies 72 integer and 72 FP
	// *rename* registers; adding the 32 architectural registers of each file
	// gives 104 physical registers (the 21264 similarly had 80 integer
	// physical registers for 31 architectural).
	PhysInt int
	PhysFP  int

	// NominalPeriod is the full-speed clock period (1 ns = 1 GHz).
	NominalPeriod simtime.Duration

	// Slowdowns stretches each structure's clock: period = factor × nominal,
	// factor >= 1. Structures that share a clock domain must carry equal
	// factors (in the fully synchronous machine that is all of them: the
	// single global clock).
	Slowdowns [NumDomains]float64

	// AutoVoltage derives each domain's supply voltage from its slowdown via
	// the dvfs model (the multiple-voltage experiments); when false every
	// domain stays at nominal voltage (frequency-only scaling).
	AutoVoltage bool

	// PhaseSeed seeds the random starting phase of each GALS local clock
	// (§4.2: "the starting phase of each clock was set to a random value").
	// The base machine's single clock always starts at phase 0.
	PhaseSeed int64

	// ZeroPhases forces every GALS clock to phase 0 (an ablation aid: with
	// equal frequencies the domains then tick in lockstep and all latency
	// differences come from the synchronizers alone).
	ZeroPhases bool

	// Communication fabric.
	FIFOCapacity  int // mixed-clock FIFO depth (GALS)
	FIFOSyncEdges int // synchronizer depth in consumer edges (2 = two-flop)
	LatchCapacity int // pipe-stage queue depth (base)

	// DynamicDVFS enables the online per-domain frequency/voltage controller
	// (GALS only): the application-driven dynamic scaling the paper's
	// conclusion anticipates.
	DynamicDVFS DynamicDVFSConfig

	// MemDisambig selects the memory cluster's load/store ordering policy
	// (default: perfect disambiguation, as an oracle predictor would give).
	MemDisambig MemDisambiguation

	// LinkStyle selects the GALS inter-domain communication mechanism:
	// mixed-clock FIFOs (the paper's choice) or stretchable-clock handshakes
	// (the §3.2 alternative, provided for the ablation that shows why the
	// paper rejected it). Ignored by the base machine.
	LinkStyle LinkStyle

	// StretchHandshake is the duration of one stretchable-clock transaction
	// (LinkStyle == LinkStretch). Zero selects 1.5x the nominal period.
	StretchHandshake simtime.Duration

	// StretchWidth is the number of items one stretched transaction carries.
	// Zero selects the machine width (4).
	StretchWidth int

	// Subsystem configurations.
	Bpred  bpred.Config
	Caches cache.HierarchyConfig
	Power  power.Params
	DVFS   dvfs.Params

	// WorkloadSeed seeds the synthetic benchmark generator.
	WorkloadSeed int64

	// MaxStallCycles aborts a run that fails to commit (deadlock guard): the
	// run panics if this many cycles of its slowest clock domain pass
	// without a commit.
	MaxStallCycles int

	// SampleInterval, when non-zero, snapshots the machine's internal state
	// every that many decode cycles into Stats.Samples (see Sample). Zero —
	// the default — disables sampling entirely and keeps the hot path
	// allocation-free. Non-zero values below 100 cycles are rejected by
	// Validate: they would record more sampler output than simulation.
	SampleInterval uint64
}

// Default communication-fabric geometry: the mixed-clock FIFO depth and
// the synchronizer depth (two-flop) of DefaultConfig.
const (
	DefaultFIFOCapacity  = 16
	DefaultFIFOSyncEdges = 2
)

// DefaultConfig returns the paper's machine (Tables 2 and 3) clocked by the
// given topology, at full speed.
func DefaultConfig(topo Topology) Config {
	cfg := Config{
		Topology:    topo,
		FetchWidth:  4,
		DecodeWidth: 4,
		RenameWidth: 4,
		CommitWidth: 4,

		IntIssueWidth: 4,
		FPIssueWidth:  4,
		MemIssueWidth: 2,

		IntIQSize: 20,
		FPIQSize:  16,
		MemIQSize: 16,
		ROBSize:   64,

		PhysInt: 72 + 32,
		PhysFP:  72 + 32,

		NominalPeriod: simtime.Nanosecond,
		AutoVoltage:   true,
		PhaseSeed:     1,

		FIFOCapacity:  DefaultFIFOCapacity,
		FIFOSyncEdges: DefaultFIFOSyncEdges,
		LatchCapacity: 4,

		Bpred:  bpred.DefaultConfig(),
		Caches: cache.DefaultHierarchyConfig(),
		Power:  power.DefaultParams(),
		DVFS:   dvfs.Default,

		WorkloadSeed:   42,
		MaxStallCycles: 20_000,
	}
	for i := range cfg.Slowdowns {
		cfg.Slowdowns[i] = 1.0
	}
	return cfg
}

// Validate reports an error for an inconsistent configuration.
func (c Config) Validate() error {
	pos := func(name string, v int) error {
		if v <= 0 {
			return fmt.Errorf("pipeline: %s = %d must be positive", name, v)
		}
		return nil
	}
	checks := []struct {
		name string
		v    int
	}{
		{"FetchWidth", c.FetchWidth}, {"DecodeWidth", c.DecodeWidth},
		{"RenameWidth", c.RenameWidth}, {"CommitWidth", c.CommitWidth},
		{"IntIssueWidth", c.IntIssueWidth}, {"FPIssueWidth", c.FPIssueWidth},
		{"MemIssueWidth", c.MemIssueWidth}, {"IntIQSize", c.IntIQSize},
		{"FPIQSize", c.FPIQSize}, {"MemIQSize", c.MemIQSize},
		{"ROBSize", c.ROBSize}, {"FIFOCapacity", c.FIFOCapacity},
		{"FIFOSyncEdges", c.FIFOSyncEdges}, {"LatchCapacity", c.LatchCapacity},
		{"MaxStallCycles", c.MaxStallCycles},
	}
	for _, ch := range checks {
		if err := pos(ch.name, ch.v); err != nil {
			return err
		}
	}
	if c.NominalPeriod <= 0 {
		return fmt.Errorf("pipeline: NominalPeriod %v must be positive", c.NominalPeriod)
	}
	if c.SampleInterval != 0 && c.SampleInterval < 100 {
		return fmt.Errorf("pipeline: SampleInterval %d cycles too short (minimum 100, or 0 to disable)", c.SampleInterval)
	}
	for d, s := range c.Slowdowns {
		if s < 1 {
			return fmt.Errorf("pipeline: slowdown[%v] = %v < 1", DomainID(d), s)
		}
	}
	topo := c.Topology
	if err := topo.Validate(); err != nil {
		return err
	}
	// Structures on one clock must be stretched together.
	for g := range topo.Domains {
		owned := topo.structuresOf(g)
		for _, d := range owned[1:] {
			if c.Slowdowns[d] != c.Slowdowns[owned[0]] {
				return fmt.Errorf("pipeline: structures %v and %v share clock domain %q; slowdown[%v]=%v differs from slowdown[%v]=%v",
					owned[0], d, topo.Domains[g].Name, d, c.Slowdowns[d], owned[0], c.Slowdowns[owned[0]])
			}
		}
	}
	// Voltage-table ceilings need the DVFS model's nominal supply.
	for _, dom := range topo.Domains {
		for _, p := range dom.VoltTable {
			if p.Voltage > c.DVFS.VNominal {
				return fmt.Errorf("pipeline: clock domain %q voltage %v exceeds the nominal supply %v",
					dom.Name, p.Voltage, c.DVFS.VNominal)
			}
		}
	}
	if err := c.DVFS.Validate(); err != nil {
		return err
	}
	if c.DynamicDVFS.Enable {
		scalable := false
		for _, dom := range topo.Domains {
			scalable = scalable || dom.Scalable
		}
		if !scalable {
			return fmt.Errorf("pipeline: dynamic DVFS requires a machine with at least one scalable clock domain (the fully synchronous machine has a single clock)")
		}
	}
	if err := c.DynamicDVFS.Validate(); err != nil {
		return err
	}
	return c.Power.Validate()
}

// SetUniformSlowdown sets every domain to the same slowdown (used for the
// base machine and the "ideal" synchronous-DVS comparisons).
func (c *Config) SetUniformSlowdown(s float64) {
	for i := range c.Slowdowns {
		c.Slowdowns[i] = s
	}
}
