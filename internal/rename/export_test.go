package rename

import (
	"fmt"

	"galsim/internal/isa"
)

// CheckInvariant panics if the mapping and free lists are inconsistent: a
// physical register must be either mapped, free, or in flight, never two at
// once. inFlight is the set of PhysDest values of renamed-but-not-undone
// instructions whose OldPhys is still held. Used by tests.
func (t *Table) CheckInvariant(inFlightOld map[int]bool) {
	seen := make(map[int]string, t.NumPhys())
	mark := func(p int, what string) {
		if p < 0 {
			return
		}
		if prev, dup := seen[p]; dup {
			panic(fmt.Sprintf("rename: phys %d is both %s and %s", p, prev, what))
		}
		seen[p] = what
	}
	for i := 0; i < isa.NumArchRegs; i++ {
		mark(t.intMap[i], "int-mapped")
		mark(t.fpMap[i], "fp-mapped")
	}
	for _, p := range t.freeInt {
		mark(p, "int-free")
	}
	for _, p := range t.freeFP {
		mark(p, "fp-free")
	}
	for p := range inFlightOld {
		mark(p, "in-flight-old")
	}
	if len(seen) != t.NumPhys() {
		panic(fmt.Sprintf("rename: %d of %d physical registers accounted for", len(seen), t.NumPhys()))
	}
}

// FreeInt returns the number of free integer physical registers.
func (t *Table) FreeInt() int { return len(t.freeInt) }

// FreeFP returns the number of free FP physical registers.
func (t *Table) FreeFP() int { return len(t.freeFP) }
