package bpred

import "galsim/internal/snapshot"

// AppendState appends the predictor's snapshot section: the direction
// table's 2-bit counters packed four to a byte, the global history, the
// BTB's non-zero entries (each as its index's gap from the previous one,
// then tag and target) and the accuracy counters.
func (p *Predictor) AppendState(e *snapshot.Encoder) {
	e.Uvarint(uint64(len(p.table)))
	for i := 0; i < len(p.table); i += 4 {
		var x byte
		for j := 0; j < 4 && i+j < len(p.table); j++ {
			x |= p.table[i+j] << (2 * j)
		}
		e.Byte(x)
	}
	e.Uvarint(p.history)
	e.Uvarint(uint64(len(p.btbTag)))
	live := 0
	for i := range p.btbTag {
		if p.btbTag[i] != 0 || p.btbTgt[i] != 0 {
			live++
		}
	}
	e.Uvarint(uint64(live))
	next := 0
	for i := range p.btbTag {
		if p.btbTag[i] != 0 || p.btbTgt[i] != 0 {
			e.Uvarint(uint64(i - next))
			e.Uvarint(p.btbTag[i])
			e.Uvarint(p.btbTgt[i])
			next = i + 1
		}
	}
	for _, v := range [...]uint64{p.lookups, p.mispredicts, p.btbHits, p.btbMisses} {
		e.Uvarint(v)
	}
}

// RestoreState reads a section AppendState wrote into a fresh predictor
// built with the same configuration (table geometries must match).
// Failures are recorded in d.
func (p *Predictor) RestoreState(d *snapshot.Decoder) {
	if n, m := d.Uvarint(), len(p.table); n != uint64(m) {
		d.Failf("bpred: restored direction table of %d entries does not match this predictor's %d", n, m)
		return
	}
	packed := d.Raw((len(p.table) + 3) / 4)
	if len(packed) > 0 && len(p.table)%4 != 0 && packed[len(packed)-1]>>(2*(len(p.table)%4)) != 0 {
		d.Failf("bpred: restored direction table sets bits past its last counter")
	}
	for i := 0; i < len(packed)*4 && i < len(p.table); i++ {
		p.table[i] = packed[i/4] >> (2 * (i % 4)) & 3
	}
	p.history = d.Uvarint()
	if n, m := d.Uvarint(), len(p.btbTag); n != uint64(m) {
		d.Failf("bpred: restored BTB of %d entries does not match this predictor's %d", n, m)
		return
	}
	next := 0
	for k, live := 0, d.Len(3); k < live; k++ {
		gap := d.Uvarint()
		if gap >= uint64(len(p.btbTag)-next) {
			d.Failf("bpred: restored BTB entry past the table's %d entries", len(p.btbTag))
			return
		}
		i := next + int(gap)
		p.btbTag[i], p.btbTgt[i] = d.Uvarint(), d.Uvarint()
		if p.btbTag[i] == 0 && p.btbTgt[i] == 0 {
			d.Failf("bpred: restored BTB lists the empty entry %d", i)
		}
		next = i + 1
	}
	for _, v := range [...]*uint64{&p.lookups, &p.mispredicts, &p.btbHits, &p.btbMisses} {
		*v = d.Uvarint()
	}
}
