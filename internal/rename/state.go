package rename

import (
	"galsim/internal/isa"
	"galsim/internal/snapshot"
)

// AppendState appends the alias table's snapshot section: both maps, both
// free lists in LIFO order — allocation order determines which physical
// register each future rename receives, so the order is as much machine
// state as the contents — and the counters.
func (t *Table) AppendState(e *snapshot.Encoder) {
	for _, p := range t.intMap {
		e.Int(p)
	}
	for _, p := range t.fpMap {
		e.Int(p)
	}
	for _, free := range [...][]int{t.freeInt, t.freeFP} {
		e.Uvarint(uint64(len(free)))
		for _, p := range free {
			e.Int(p)
		}
	}
	e.Int(t.intAllocated)
	e.Int(t.fpAllocated)
	for _, v := range [...]uint64{t.samples, t.intOccSum, t.fpOccSum} {
		e.Uvarint(v)
	}
}

// RestoreState reads a section AppendState wrote into a table built with
// the same register file sizes. Failures are recorded in d.
func (t *Table) RestoreState(d *snapshot.Decoder) {
	phys := func(p int) int {
		if p < 0 || p >= t.NumPhys() {
			d.Failf("rename: restored register %d outside physical space [0, %d)", p, t.NumPhys())
		}
		return p
	}
	for i := range t.intMap {
		t.intMap[i] = phys(d.Int())
	}
	for i := range t.fpMap {
		t.fpMap[i] = phys(d.Int())
	}
	for _, f := range [...]struct {
		list *[]int
		max  int
	}{{&t.freeInt, t.numInt - isa.NumArchRegs}, {&t.freeFP, t.numFP - isa.NumArchRegs}} {
		n := d.Len(1)
		if n > f.max {
			d.Failf("rename: restored free list of %d registers exceeds this table's %d rename registers", n, f.max)
			return
		}
		*f.list = (*f.list)[:0]
		for i := 0; i < n; i++ {
			*f.list = append(*f.list, phys(d.Int()))
		}
	}
	t.intAllocated = d.Int()
	t.fpAllocated = d.Int()
	for _, v := range [...]*uint64{&t.samples, &t.intOccSum, &t.fpOccSum} {
		*v = d.Uvarint()
	}
}
