package power

import "galsim/internal/snapshot"

// AppendState appends the meter's snapshot section: the block count, then
// per block the accesses recorded but not yet closed by an EndCycle, the
// accumulated energy, and the cycle and idle counts.
func (m *Meter) AppendState(e *snapshot.Encoder) {
	e.Uvarint(uint64(NumBlocks))
	for b := range NumBlocks {
		e.F64(m.pending[b])
		e.F64(m.energy[b])
		e.Uvarint(m.cycles[b])
		e.Uvarint(m.idle[b])
	}
}

// RestoreState reads a section AppendState wrote. The block count must
// match — a snapshot from a build with a different block set cannot be
// applied. Failures are recorded in d.
func (m *Meter) RestoreState(d *snapshot.Decoder) {
	if n := d.Uvarint(); n != uint64(NumBlocks) {
		d.Failf("power: restored state has %d blocks, this build accounts %d", n, NumBlocks)
		return
	}
	for b := range NumBlocks {
		m.pending[b] = d.F64()
		m.energy[b] = d.F64()
		m.cycles[b] = d.Uvarint()
		m.idle[b] = d.Uvarint()
	}
}
