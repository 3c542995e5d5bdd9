package iq

import (
	"galsim/internal/isa"
	"galsim/internal/snapshot"
)

// AppendState appends the queue's snapshot section: its waiting
// instructions in insertion (program) order, each written by put, then the
// raw counters, including the occupancy accumulators the DVFS controller
// and the interval sampler difference.
func (q *Queue) AppendState(e *snapshot.Encoder, put func(*isa.Instr)) {
	e.Uvarint(uint64(len(q.entries)))
	for _, in := range q.entries {
		put(in)
	}
	for _, v := range [...]uint64{q.inserts, q.issues, q.flushes, q.occSum, q.occTicks} {
		e.Uvarint(v)
	}
}

// RestoreState reads a section AppendState wrote into a fresh, empty queue
// of the same capacity, each entry read by get, bypassing Insert so the
// counters stay exactly as captured. Failures are recorded in d.
func (q *Queue) RestoreState(d *snapshot.Decoder, get func() *isa.Instr) {
	if len(q.entries) != 0 {
		d.Failf("iq: queue %q: restore into non-empty queue (%d entries)", q.name, len(q.entries))
		return
	}
	n := d.Len(1)
	if n > q.cap {
		d.Failf("iq: queue %q: %d restored entries exceed capacity %d", q.name, n, q.cap)
		return
	}
	for i := 0; i < n; i++ {
		q.entries = append(q.entries, get())
	}
	for _, v := range [...]*uint64{&q.inserts, &q.issues, &q.flushes, &q.occSum, &q.occTicks} {
		*v = d.Uvarint()
	}
}
