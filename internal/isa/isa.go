// Package isa defines the abstract instruction set of the simulated
// processor: instruction classes, the register model, execution latencies,
// and the dynamic-instruction record carried through the pipeline.
//
// The machine is a generic RISC resembling the Alpha: 32 integer and 32
// floating-point architectural registers, load/store architecture, and the
// functional-unit classes of the paper's Table 3 (4 integer ALUs, 4 FP
// units, a load/store port into a 16 KB L1 D-cache).
//
// Because the simulator is trace-driven, instructions carry no values — only
// register names, class, and memory/branch metadata. The record also carries
// the lifecycle timestamps (fetch, decode, dispatch, issue, complete,
// commit) and the accumulated FIFO residency needed for the paper's slip
// analysis (Figures 6 and 7).
//
// # Instruction arena
//
// Dynamic instructions are the simulator's only high-rate heap traffic: one
// record per fetched instruction, including the wrong-path junk discarded at
// every misprediction. Pool is a chunked arena with a free list that removes
// that traffic from the garbage collector. The lifecycle is:
//
//   - allocate at fetch: Pool.Get returns a fully re-initialized *Instr
//     (identical to NewInstr) holding one reference;
//   - the pipeline takes a second reference when the instruction enters the
//     reorder buffer, because from that point the record lives in two places
//     at once (the ROB and whichever queue/link/issue structure it currently
//     occupies);
//   - free at commit and at squash: each holder calls Pool.Release as the
//     instruction leaves it — the ROB at commit or squash-undo, the flow
//     structures when a doomed entry is flushed or dropped — and the record
//     returns to the free list only when the last reference is gone, so a
//     stale *Instr can never be observed through a FIFO, issue queue or ROB.
//
// A generation counter increments on every recycle; Instr.Generation lets
// tests (and debug assertions) detect a pointer held across a free. Once a
// run is over, Pool.Recycle hands the arena's chunks to later arenas, which
// zero them, generations included, before use. A source handed no pool
// falls back to NewInstr's ordinary heap allocations, never recycled; the
// two allocation paths produce identical records, and the pipeline's tests
// hold the arena to the heap path as their reference.
package isa

import (
	"fmt"

	"galsim/internal/simtime"
)

// Class partitions instructions by the resource that executes them; it
// determines which issue queue (and, in the GALS machine, which clock
// domain) an instruction is dispatched to.
type Class uint8

// Instruction classes.
const (
	ClassNop    Class = iota // consumes a slot, executes in 1 cycle on an int ALU
	ClassIntALU              // add/sub/logic/shift/compare
	ClassIntMul              // integer multiply
	ClassFPAdd               // FP add/sub/convert
	ClassFPMul               // FP multiply
	ClassFPDiv               // FP divide / sqrt
	ClassLoad                // memory read
	ClassStore               // memory write
	ClassBranch              // conditional branch / jump / call / return
	numClasses
)

// NumClasses is the number of distinct instruction classes.
const NumClasses = int(numClasses)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case ClassNop:
		return "nop"
	case ClassIntALU:
		return "int-alu"
	case ClassIntMul:
		return "int-mul"
	case ClassFPAdd:
		return "fp-add"
	case ClassFPMul:
		return "fp-mul"
	case ClassFPDiv:
		return "fp-div"
	case ClassLoad:
		return "load"
	case ClassStore:
		return "store"
	case ClassBranch:
		return "branch"
	default:
		return fmt.Sprintf("class(%d)", uint8(c))
	}
}

// IsFP reports whether the class executes on the floating-point cluster.
func (c Class) IsFP() bool { return c == ClassFPAdd || c == ClassFPMul || c == ClassFPDiv }

// IsMem reports whether the class executes on the memory cluster.
func (c Class) IsMem() bool { return c == ClassLoad || c == ClassStore }

// ExecLatency returns the occupancy of the functional unit in cycles of its
// own clock domain, excluding cache misses (the memory system adds those
// separately for loads).
func (c Class) ExecLatency() int {
	switch c {
	case ClassNop, ClassIntALU, ClassBranch:
		return 1
	case ClassIntMul:
		return 3
	case ClassFPAdd:
		return 2
	case ClassFPMul:
		return 4
	case ClassFPDiv:
		return 12
	case ClassLoad, ClassStore:
		return 1 // address generation; cache access time is added by the LSQ
	default:
		panic(fmt.Sprintf("isa: unknown class %d", uint8(c)))
	}
}

// RegFile selects which architectural register file a register name refers to.
type RegFile uint8

// Register files.
const (
	RegNone RegFile = iota // no register (absent operand)
	RegInt
	RegFP
)

// NumArchRegs is the number of architectural registers in each file.
const NumArchRegs = 32

// Reg names one architectural register.
type Reg struct {
	File  RegFile
	Index uint8 // 0..NumArchRegs-1; index 31 of the int file is hardwired zero
}

// ZeroReg is the hardwired integer zero register: writes to it are discarded
// and reads never create dependences.
var ZeroReg = Reg{File: RegInt, Index: 31}

// Valid reports whether the register is a real operand.
func (r Reg) Valid() bool { return r.File != RegNone }

// IsZero reports whether r is the hardwired zero register.
func (r Reg) IsZero() bool { return r == ZeroReg }

// String implements fmt.Stringer.
func (r Reg) String() string {
	switch r.File {
	case RegNone:
		return "-"
	case RegInt:
		return fmt.Sprintf("r%d", r.Index)
	case RegFP:
		return fmt.Sprintf("f%d", r.Index)
	default:
		return fmt.Sprintf("?%d.%d", r.File, r.Index)
	}
}

// Seq is a global dynamic-instruction sequence number; fetch order defines
// program order, and squashing discards every instruction younger than a
// given Seq.
type Seq uint64

// Instr is one dynamic instruction flowing through the pipeline. Fields are
// written by the generator (identity, operands, outcome ground truth) and by
// pipeline stages (rename results, lifecycle timestamps, statistics).
type Instr struct {
	Seq   Seq
	PC    uint64
	Class Class

	// Architectural operands.
	Src  [2]Reg
	Dest Reg

	// Memory metadata (loads/stores): effective address, filled by the
	// generator (trace-driven addressing).
	Addr uint64

	// Branch metadata (ground truth from the generator).
	Taken  bool   // actual direction
	Target uint64 // actual target

	// Branch prediction results (filled at fetch).
	PredTaken    bool
	PredTarget   uint64
	Mispredicted bool // prediction != ground truth, discovered at fetch time

	// WrongPath marks instructions fetched past a mispredicted branch; they
	// consume resources and are eventually squashed, never committed.
	WrongPath bool

	// WPID identifies the wrong-path excursion: the front end numbers each
	// misprediction's excursion, stamps the id on the mispredicted branch
	// and on every wrong-path instruction fetched during it. Squash logic
	// discards wrong-path instructions whose excursion has resolved.
	WPID uint64

	// Rename results (physical register indices; -1 when unused).
	PhysSrc  [2]int
	PhysDest int
	OldPhys  int // previous mapping of Dest, freed at commit / restored on squash

	// ROB bookkeeping.
	ROBIndex int

	// Lifecycle timestamps (simtime.Never until reached).
	FetchTime    simtime.Time
	DecodeTime   simtime.Time
	DispatchTime simtime.Time
	IssueTime    simtime.Time
	CompleteTime simtime.Time
	CommitTime   simtime.Time

	// FIFOTime accumulates the total residency of this instruction (and of
	// its completion notification) inside inter-domain FIFOs, for the slip
	// breakdown of Figure 7. In the base machine the same accounting charges
	// the single-cycle pipe latches.
	FIFOTime simtime.Duration

	// Done is set when execution has finished and the completion has reached
	// the ROB; commit waits for it.
	Done bool

	// DCacheHit records the L1 data cache's verdict for loads.
	DCacheHit bool

	// Arena bookkeeping (see the package comment): the number of pipeline
	// structures referencing this record, and the recycle generation.
	refs int32
	gen  uint32
}

// Generation returns the record's recycle count: it increments each time the
// instruction returns to its Pool, so a caller that cached the value at hand-
// off can detect a pointer held across a free.
func (in *Instr) Generation() uint32 { return in.gen }

// reset reinitializes every simulation field, preserving the arena
// bookkeeping. It is the single definition of "blank instruction" shared by
// NewInstr and Pool.Get.
//
// The record is cleared in place and the non-zero fields set one by one:
// assigning a composite literal instead would build the whole record on the
// stack and copy it.
func (in *Instr) reset(seq Seq, pc uint64, class Class) {
	refs, gen := in.refs, in.gen
	*in = Instr{}
	in.Seq = seq
	in.PC = pc
	in.Class = class
	in.PhysSrc = [2]int{-1, -1}
	in.PhysDest = -1
	in.OldPhys = -1
	in.ROBIndex = -1
	in.FetchTime = simtime.Never
	in.DecodeTime = simtime.Never
	in.DispatchTime = simtime.Never
	in.IssueTime = simtime.Never
	in.CompleteTime = simtime.Never
	in.CommitTime = simtime.Never
	in.refs = refs
	in.gen = gen
}

// NewInstr returns a blank instruction with timestamps cleared.
func NewInstr(seq Seq, pc uint64, class Class) *Instr {
	in := &Instr{}
	in.reset(seq, pc, class)
	return in
}

// Slip returns the fetch-to-commit latency of a committed instruction: the
// paper's "slip" metric (Figure 6). It panics if the instruction has not
// committed.
func (in *Instr) Slip() simtime.Duration {
	if in.CommitTime == simtime.Never || in.FetchTime == simtime.Never {
		panic(fmt.Sprintf("isa: Slip of uncommitted instruction %d", in.Seq))
	}
	return in.CommitTime - in.FetchTime
}

// String implements fmt.Stringer for debugging.
func (in *Instr) String() string {
	wp := ""
	if in.WrongPath {
		wp = " WP"
	}
	return fmt.Sprintf("#%d %s pc=%#x dst=%v src=[%v %v]%s",
		in.Seq, in.Class, in.PC, in.Dest, in.Src[0], in.Src[1], wp)
}
