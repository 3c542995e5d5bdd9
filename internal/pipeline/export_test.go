package pipeline

import (
	"galsim/internal/isa"
	"galsim/internal/workload"
)

// The package's tests build the paper's two machines directly, without the
// machine package (which imports this one).

// BaseTopology is the fully synchronous machine: every structure in one
// "core" domain, clocked through a global grid plus the five local grids.
func BaseTopology() Topology {
	return Topology{
		Domains:    []TopoDomain{{Name: "core"}},
		GlobalGrid: true,
	}
}

// GALSTopology is the paper's Figure 3(b) machine: one clock domain per
// structure, execution domains scalable by the dynamic DVFS controller.
func GALSTopology() Topology {
	t := Topology{
		Domains: []TopoDomain{
			{Name: DomFetch.String()},
			{Name: DomDecode.String()},
			{Name: DomInt.String(), Scalable: true},
			{Name: DomFP.String(), Scalable: true},
			{Name: DomMem.String(), Scalable: true},
		},
	}
	for d := range t.Of {
		t.Of[d] = d
	}
	return t
}

// NewCore builds a machine for the given configuration and benchmark,
// driven by the built-in synthetic generator.
func NewCore(cfg Config, prof workload.Profile) *Core {
	return NewCoreWithSource(cfg, prof.Name, workload.NewGenerator(prof, cfg.WorkloadSeed))
}

// RetainInstrs disables arena recycling for this core: every instruction
// record is heap-allocated and never reused, so an OnCommit hook may keep
// *Instr values alive after the hook returns. It selects the heap path that
// the arena must match. Must be called before Run.
func (c *Core) RetainInstrs() {
	if c.started {
		panic("pipeline: RetainInstrs after Run")
	}
	c.pool = nil
	if pu, ok := c.gen.(workload.PoolUser); ok {
		pu.UsePool(nil)
	}
}

// PoolStats reports the instruction arena's counters (zero with a
// non-pooling source).
func (c *Core) PoolStats() isa.PoolStats {
	if c.pool == nil {
		return isa.PoolStats{}
	}
	return c.pool.Stats()
}
