// Package rename implements register renaming: the register alias tables
// (RAT) mapping the 32+32 architectural registers onto the 72 integer and 72
// floating-point physical registers of the paper's machine (Table 3), the
// free lists, and the ROB-walk recovery of mappings after a misprediction.
//
// Physical registers live in a single unified index space: integer physical
// registers occupy [0, NumInt) and floating-point ones [NumInt,
// NumInt+NumFP). Index -1 means "no register" (absent operand, or the
// hardwired integer zero register, which is never renamed).
package rename

import (
	"fmt"

	"galsim/internal/isa"
)

// Table is the register alias table plus free lists for both register files.
type Table struct {
	numInt, numFP int
	intMap        [isa.NumArchRegs]int
	fpMap         [isa.NumArchRegs]int
	freeInt       []int
	freeFP        []int

	// Occupancy statistics: sum of allocated-beyond-architectural counts,
	// sampled by Sample(); the paper reports RAT occupancy growth in GALS
	// (e.g. ijpeg integer allocation 15 -> 24).
	intAllocated int
	fpAllocated  int
	samples      uint64
	intOccSum    uint64
	fpOccSum     uint64
}

// New builds a table with the given physical register file sizes. Each file
// needs at least NumArchRegs+1 physical registers to make progress.
func New(numInt, numFP int) *Table {
	if numInt <= isa.NumArchRegs || numFP <= isa.NumArchRegs {
		panic(fmt.Sprintf("rename: need > %d physical registers per file, got %d int / %d fp",
			isa.NumArchRegs, numInt, numFP))
	}
	t := &Table{
		numInt: numInt, numFP: numFP,
		// Free-list occupancy can never exceed the rename-register count, so
		// sizing the backing arrays once keeps Commit/Undo allocation-free.
		freeInt: make([]int, 0, numInt-isa.NumArchRegs),
		freeFP:  make([]int, 0, numFP-isa.NumArchRegs),
	}
	for i := 0; i < isa.NumArchRegs; i++ {
		t.intMap[i] = i
		t.fpMap[i] = numInt + i
	}
	for p := isa.NumArchRegs; p < numInt; p++ {
		t.freeInt = append(t.freeInt, p)
	}
	for p := numInt + isa.NumArchRegs; p < numInt+numFP; p++ {
		t.freeFP = append(t.freeFP, p)
	}
	return t
}

// NumPhys returns the total size of the unified physical register space.
func (t *Table) NumPhys() int { return t.numInt + t.numFP }

// Lookup returns the current physical mapping of an architectural register,
// or -1 for invalid/zero registers.
func (t *Table) Lookup(r isa.Reg) int {
	if !r.Valid() || r.IsZero() {
		return -1
	}
	if r.File == isa.RegFP {
		return t.fpMap[r.Index]
	}
	return t.intMap[r.Index]
}

// needsDest reports whether in allocates a new physical register.
func needsDest(in *isa.Instr) bool {
	return in.Dest.Valid() && !in.Dest.IsZero()
}

// CanRename reports whether a free physical register is available for the
// instruction's destination (always true for instructions without one).
func (t *Table) CanRename(in *isa.Instr) bool {
	if !needsDest(in) {
		return true
	}
	if in.Dest.File == isa.RegFP {
		return len(t.freeFP) > 0
	}
	return len(t.freeInt) > 0
}

// Rename maps the instruction's sources through the RAT, allocates a
// physical destination, and records the previous mapping for recovery. It
// panics if CanRename is false.
func (t *Table) Rename(in *isa.Instr) {
	in.PhysSrc[0] = t.Lookup(in.Src[0])
	in.PhysSrc[1] = t.Lookup(in.Src[1])
	if !needsDest(in) {
		in.PhysDest = -1
		in.OldPhys = -1
		return
	}
	if in.Dest.File == isa.RegFP {
		if len(t.freeFP) == 0 {
			panic(fmt.Sprintf("rename: no free FP register for %v", in))
		}
		p := t.freeFP[len(t.freeFP)-1]
		t.freeFP = t.freeFP[:len(t.freeFP)-1]
		in.OldPhys = t.fpMap[in.Dest.Index]
		in.PhysDest = p
		t.fpMap[in.Dest.Index] = p
		t.fpAllocated++
	} else {
		if len(t.freeInt) == 0 {
			panic(fmt.Sprintf("rename: no free int register for %v", in))
		}
		p := t.freeInt[len(t.freeInt)-1]
		t.freeInt = t.freeInt[:len(t.freeInt)-1]
		in.OldPhys = t.intMap[in.Dest.Index]
		in.PhysDest = p
		t.intMap[in.Dest.Index] = p
		t.intAllocated++
	}
}

// Undo reverses a rename during squash recovery. Instructions must be undone
// in reverse program order (youngest first), as the ROB walk guarantees.
func (t *Table) Undo(in *isa.Instr) {
	if in.PhysDest < 0 {
		return
	}
	if in.Dest.File == isa.RegFP {
		if t.fpMap[in.Dest.Index] != in.PhysDest {
			panic(fmt.Sprintf("rename: out-of-order undo of %v", in))
		}
		t.fpMap[in.Dest.Index] = in.OldPhys
		t.freeFP = append(t.freeFP, in.PhysDest)
		t.fpAllocated--
	} else {
		if t.intMap[in.Dest.Index] != in.PhysDest {
			panic(fmt.Sprintf("rename: out-of-order undo of %v", in))
		}
		t.intMap[in.Dest.Index] = in.OldPhys
		t.freeInt = append(t.freeInt, in.PhysDest)
		t.intAllocated--
	}
	in.PhysDest = -1
	in.OldPhys = -1
}

// Commit retires an instruction: the previous mapping of its destination can
// never be referenced again and returns to the free list.
func (t *Table) Commit(in *isa.Instr) {
	if in.PhysDest < 0 || in.OldPhys < 0 {
		return
	}
	if in.Dest.File == isa.RegFP {
		t.freeFP = append(t.freeFP, in.OldPhys)
		t.fpAllocated--
	} else {
		t.freeInt = append(t.freeInt, in.OldPhys)
		t.intAllocated--
	}
}

// Sample records the current allocation-table occupancy (registers allocated
// beyond the architectural state) into the running averages.
func (t *Table) Sample() {
	t.samples++
	t.intOccSum += uint64(t.intAllocated)
	t.fpOccSum += uint64(t.fpAllocated)
}

// AvgIntOccupancy returns the mean sampled integer allocation-table
// occupancy.
func (t *Table) AvgIntOccupancy() float64 {
	if t.samples == 0 {
		return 0
	}
	return float64(t.intOccSum) / float64(t.samples)
}

// AvgFPOccupancy returns the mean sampled FP allocation-table occupancy.
func (t *Table) AvgFPOccupancy() float64 {
	if t.samples == 0 {
		return 0
	}
	return float64(t.fpOccSum) / float64(t.samples)
}
