package pipeline

import (
	"fmt"

	"galsim/internal/bpred"
	"galsim/internal/cache"
	"galsim/internal/fifo"
	"galsim/internal/iq"
	"galsim/internal/power"
	"galsim/internal/rob"
	"galsim/internal/simtime"
)

// Stats is everything measured over one run: the raw material for every
// figure in the paper's evaluation.
type Stats struct {
	Kind      Kind
	Benchmark string

	// Instruction counts.
	Committed        uint64
	Fetched          uint64 // correct + wrong path
	WrongPathFetched uint64
	Mispredicts      uint64 // correct-path branch mispredictions
	Recoveries       uint64
	SquashedROB      uint64

	// Time.
	SimTime simtime.Time
	Cycles  [NumDomains]uint64

	// Slip (Figures 6-7): fetch-to-commit latency of committed instructions
	// and the share of it spent inside inter-stage links.
	SlipSum     simtime.Duration
	FIFOSlipSum simtime.Duration

	// ResolutionSum accumulates fetch-to-resolve latency of mispredicted
	// branches: the window during which wrong-path fetch runs.
	ResolutionSum simtime.Duration

	// Per-stage latency sums over committed instructions (slip breakdown).
	SumFetchToDecode    simtime.Duration
	SumDecodeToDispatch simtime.Duration
	SumDispatchToIssue  simtime.Duration
	SumIssueToComplete  simtime.Duration
	SumCompleteToCommit simtime.Duration

	// Stall diagnostics.
	FetchStallICache     uint64
	FetchStallLinkFull   uint64
	ICacheMisses         uint64
	BTBBubbles           uint64
	RenameStallROB       uint64
	RenameStallRegs      uint64
	RenameStallDispatch  uint64
	CompleteBackpressure uint64
	LoadsBlockedByStores uint64

	// Dynamic DVFS activity.
	Retunes        uint64
	FinalSlowdowns [NumDomains]float64

	// Substructure statistics, filled at finalize.
	IntIQ, FPIQ, MemIQ iq.Stats
	ROB                rob.Stats
	AvgIntRAT          float64
	AvgFPRAT           float64
	Bpred              bpred.Stats
	L1I, L1D, L2       cache.Stats

	// Energy.
	EnergyPJ        float64
	EnergyBreakdown [power.NumBlocks]float64

	// Per-link activity, keyed by link name.
	Links map[string]fifo.Stats

	// Interval time-series, present only when Config.SampleInterval > 0.
	// omitempty keeps the serialized Stats (golden snapshots, cache
	// payloads, wire results) byte-identical when sampling is off.
	Samples []Sample `json:"Samples,omitempty"`
}

// InstrPerSecond is the machine's absolute performance: committed
// instructions per second of simulated time. Relative performance between
// machines running the same instruction count is the inverse ratio of their
// SimTimes.
func (s Stats) InstrPerSecond() float64 {
	sec := s.SimTime.Seconds()
	if sec <= 0 {
		return 0
	}
	return float64(s.Committed) / sec
}

// IPC is committed instructions per decode-domain cycle (the conventional
// single-clock metric; meaningful within one machine).
func (s Stats) IPC() float64 {
	if s.Cycles[DomDecode] == 0 {
		return 0
	}
	return float64(s.Committed) / float64(s.Cycles[DomDecode])
}

// AvgSlip is the mean fetch-to-commit latency of committed instructions
// (Figure 6).
func (s Stats) AvgSlip() simtime.Duration {
	if s.Committed == 0 {
		return 0
	}
	return s.SlipSum / simtime.Duration(s.Committed)
}

// FIFOSlipShare is the fraction of total slip spent inside inter-stage
// links (Figure 7's "FIFO" segment).
func (s Stats) FIFOSlipShare() float64 {
	if s.SlipSum == 0 {
		return 0
	}
	return float64(s.FIFOSlipSum) / float64(s.SlipSum)
}

// MisspeculationFrac is the fraction of all fetched instructions that were
// wrong-path (Figure 8).
func (s Stats) MisspeculationFrac() float64 {
	if s.Fetched == 0 {
		return 0
	}
	return float64(s.WrongPathFetched) / float64(s.Fetched)
}

// MispredictRate is mispredictions per correct-path branch.
func (s Stats) MispredictRate() float64 {
	if s.Bpred.Lookups == 0 {
		return 0
	}
	return float64(s.Mispredicts) / float64(s.Bpred.Lookups)
}

// EnergyJoules is total energy in joules.
func (s Stats) EnergyJoules() float64 { return s.EnergyPJ * 1e-12 }

// AvgPowerWatts is mean power over the run.
func (s Stats) AvgPowerWatts() float64 {
	sec := s.SimTime.Seconds()
	if sec <= 0 {
		return 0
	}
	return s.EnergyJoules() / sec
}

// String summarizes the run for logs.
func (s Stats) String() string {
	return fmt.Sprintf(
		"%s/%s: %d committed in %v (%.0f MIPS, IPC %.2f), misspec %.1f%%, slip %v, power %.1f W",
		s.Kind, s.Benchmark, s.Committed, s.SimTime, s.InstrPerSecond()/1e6, s.IPC(),
		100*s.MisspeculationFrac(), s.AvgSlip(), s.AvgPowerWatts())
}

// finalize gathers end-of-run statistics from the subsystems and computes
// FIFO energy from link activity.
func (c *Core) finalize() {
	c.stats.SimTime = c.now
	c.stats.IntIQ = c.exec[DomInt].queue.Stats()
	c.stats.FPIQ = c.exec[DomFP].queue.Stats()
	c.stats.MemIQ = c.exec[DomMem].queue.Stats()
	c.stats.ROB = c.rob.Stats()
	c.stats.AvgIntRAT = c.rat.AvgIntOccupancy()
	c.stats.AvgFPRAT = c.rat.AvgFPOccupancy()
	c.stats.Bpred = c.pred.Stats()
	c.stats.L1I = c.mem.L1I.Stats()
	c.stats.L1D = c.mem.L1D.Stats()
	c.stats.L2 = c.mem.L2.Stats()

	c.stats.Links = map[string]fifo.Stats{}
	chargeLink(c, c.fetchToDecode, DomFetch, DomDecode)
	c.stats.Links[c.decodeToRename.Name()] = c.decodeToRename.Stats()
	for _, d := range execDomains {
		chargeLink(c, c.dispatch[d], DomDecode, d)
		chargeLink(c, c.complete[d], d, DomDecode)
	}
	chargeLink(c, c.wakeIntToMem, DomInt, DomMem)
	chargeLink(c, c.wakeFPToMem, DomFP, DomMem)
	chargeLink(c, c.wakeMemToInt, DomMem, DomInt)
	chargeLink(c, c.wakeMemToFP, DomMem, DomFP)

	for d := DomainID(0); d < NumDomains; d++ {
		c.stats.FinalSlowdowns[d] = c.clocks[d].Slowdown()
	}
	c.stats.EnergyPJ = c.mtr.TotalEnergy()
	c.stats.EnergyBreakdown = c.mtr.Breakdown()
}

// chargeLink records a link's activity counters and, when the link crosses
// clock domains, charges its accesses to the FIFO energy.
func chargeLink[T any](c *Core, l *fifo.Link[T], from, to DomainID) {
	st := l.Stats()
	c.stats.Links[l.Name()] = st
	if c.cfg.Topology.Cross(from, to) {
		// Final voltages; exact for static scaling, a slight approximation
		// when dynamic DVFS retuned voltages mid-run.
		scale := (c.clocks[from].EnergyScale() + c.clocks[to].EnergyScale()) / 2
		perAccess := power.PerAccess(power.BlockFIFOs)
		c.mtr.AddEnergy(power.BlockFIFOs, float64(st.Puts+st.Gets)*perAccess*scale)
	}
}
