// Package power implements the architectural power model of the study: a
// Wattch-style accounting of per-access switching energy for every macro
// block of the processor, per-cycle switching energy for the clock
// distribution grids, the paper's 10%-of-full-power charge for idle
// (clock-gated) blocks, the energy of the inter-domain FIFOs, and the
// (V/Vnom)² scaling used by the multiple-voltage experiments.
//
// Block granularity follows Figure 10 of the paper, which breaks total
// energy into: the global clock grid, the five local clock grids (fetch,
// decode, integer, FP, memory), the ALUs, register file, rename logic, L2
// cache, D-cache, branch predictor, I-cache, and the three issue windows —
// plus the mixed-clock FIFOs present only in the GALS machine.
//
// For the synchronous base machine the clock-grid constants are
// proportioned after the 21264's published clocking hierarchy: the clock
// network is roughly a third of chip power, of which the global grid is
// roughly a third and the local (major-clock) grids the rest. The GALS
// machine drops the global grid and keeps the five local grids — exactly
// the paper's §4.3 modeling decision.
package power

import (
	"fmt"
)

// Block identifies one energy-accounted macro block.
type Block uint8

// Macro blocks, in Figure 10 display order.
const (
	BlockGlobalClock Block = iota
	BlockMemClock
	BlockFPClock
	BlockIntClock
	BlockDecodeClock
	BlockFetchClock
	BlockALUs   // integer ALUs (charged by the integer domain)
	BlockFPALUs // FP units (charged by the FP domain; merged with ALUs in Figure 10)
	BlockRegfile
	BlockRename
	BlockL2
	BlockDCache
	BlockBPred
	BlockICache
	BlockMemIQ
	BlockFPIQ
	BlockIntIQ
	BlockFIFOs
	numBlocks
)

// NumBlocks is the number of accounted macro blocks.
const NumBlocks = int(numBlocks)

// String implements fmt.Stringer.
func (b Block) String() string {
	names := [...]string{
		"global-clock", "mem-clock", "fp-clock", "int-clock", "decode-clock",
		"fetch-clock", "alus", "fp-alus", "regfile", "rename", "l2", "dcache",
		"bpred", "icache", "mem-iq", "fp-iq", "int-iq", "fifos",
	}
	if int(b) < len(names) {
		return names[b]
	}
	return fmt.Sprintf("block(%d)", uint8(b))
}

// Blocks returns all accounted blocks in display order.
func Blocks() []Block {
	out := make([]Block, NumBlocks)
	for i := range out {
		out[i] = Block(i)
	}
	return out
}

// IsClock reports whether the block is a clock distribution grid.
func (b Block) IsClock() bool {
	switch b {
	case BlockGlobalClock, BlockMemClock, BlockFPClock, BlockIntClock,
		BlockDecodeClock, BlockFetchClock:
		return true
	}
	return false
}

// blockModel gives one block's energy model.
type blockModel struct {
	// perAccess is the switching energy of one access, in picojoules at
	// nominal voltage. For clock grids it is the energy of one clock cycle.
	perAccess float64
	// fullAccesses is the access count of a fully busy cycle; idle cycles
	// charge idleFraction × fullAccesses × perAccess. Zero for grids (a grid
	// is never idle while its clock runs) and for FIFOs.
	fullAccesses float64
}

// idleFraction is the fraction of full per-cycle power an unused block
// still burns; the paper models clock-gating overheads and leakage as 10%
// of full power.
const idleFraction float64 = 0.10

// table is the calibrated model. Absolute magnitudes are arbitrary
// (results are reported normalized to the base machine); the ratios encode
// the structure described in the package comment.
var table = [NumBlocks]blockModel{
	// Clock grids: energy per cycle of their domain's clock. Proportioned so
	// that in the base machine the whole clock network is roughly a third of
	// total power and the global grid roughly a third of that (the
	// 21264-style hierarchy): global ≈ 10% of chip power.
	BlockGlobalClock: {750, 0},
	BlockFetchClock:  {385, 0},
	BlockDecodeClock: {495, 0},
	BlockIntClock:    {495, 0},
	BlockFPClock:     {495, 0},
	BlockMemClock:    {605, 0},
	// Arrays and logic: energy per access, and accesses in a saturated cycle.
	BlockICache:  {1100, 1},   // one line fetch per cycle
	BlockBPred:   {350, 2},    // lookup + update
	BlockRename:  {180, 4},    // 4-wide rename
	BlockRegfile: {140, 12},   // 8 read + 4 write ports
	BlockIntIQ:   {200, 8},    // dispatch writes + selects + wakeups
	BlockFPIQ:    {200, 8},    //
	BlockMemIQ:   {200, 6},    //
	BlockALUs:    {450, 4},    // 4 integer ALUs
	BlockFPALUs:  {900, 4},    // 4 FP units
	BlockDCache:  {900, 2},    // 2 ports
	BlockL2:      {2400, 0.5}, // occasional
	BlockFIFOs:   {30, 0},     // per put/get; GALS only
}

// PerAccess returns a block's switching energy per access in picojoules at
// nominal voltage (per cycle for a clock grid).
func PerAccess(b Block) float64 { return table[b].perAccess }

// Meter accumulates energy over a simulation run. One Meter serves the whole
// machine; each clock domain ends its own cycles with EndCycle over the
// blocks it owns. The zero Meter is ready to use.
type Meter struct {
	pending [NumBlocks]float64 // accesses recorded since the block's last EndCycle
	energy  [NumBlocks]float64 // accumulated energy in pJ
	cycles  [NumBlocks]uint64
	idle    [NumBlocks]uint64
}

// Access records n accesses to a block within the current cycle of the
// block's owning domain.
func (m *Meter) Access(b Block, n int) {
	if n < 0 {
		panic(fmt.Sprintf("power: negative access count for %v", b))
	}
	m.pending[b] += float64(n)
}

// EndCycle closes one clock cycle for the given blocks at the given voltage
// scale factor ((V/Vnom)², see clock.Domain.EnergyScale): active blocks
// charge their recorded accesses, idle blocks charge the idle fraction of a
// full cycle.
func (m *Meter) EndCycle(blocks []Block, energyScale float64) {
	for _, b := range blocks {
		bp := table[b]
		acc := m.pending[b]
		m.pending[b] = 0
		m.cycles[b]++
		var e float64
		if acc > 0 {
			e = acc * bp.perAccess
		} else if b.IsClock() {
			// A grid switches every cycle of its clock regardless of work.
			e = bp.perAccess
		} else {
			m.idle[b]++
			e = idleFraction * bp.fullAccesses * bp.perAccess
		}
		m.energy[b] += e * energyScale
	}
}

// EndClockCycle charges one cycle of a clock grid block: grids switch every
// cycle of their domain.
func (m *Meter) EndClockCycle(b Block, energyScale float64) {
	if !b.IsClock() {
		panic(fmt.Sprintf("power: EndClockCycle on non-clock block %v", b))
	}
	m.cycles[b]++
	m.energy[b] += table[b].perAccess * energyScale
}

// AddEnergy adds raw energy (pJ) to a block, already voltage-scaled. Used
// for FIFO energy computed from link statistics.
func (m *Meter) AddEnergy(b Block, pj float64) {
	if pj < 0 {
		panic(fmt.Sprintf("power: negative energy for %v", b))
	}
	m.energy[b] += pj
}

// TotalEnergy returns the machine's accumulated energy in picojoules.
func (m *Meter) TotalEnergy() float64 {
	var t float64
	for _, e := range m.energy {
		t += e
	}
	return t
}

// Breakdown returns a copy of the per-block energies, indexed by Block.
func (m *Meter) Breakdown() [NumBlocks]float64 { return m.energy }

// Cycles returns how many cycles a block has been accounted.
func (m *Meter) Cycles(b Block) uint64 { return m.cycles[b] }
