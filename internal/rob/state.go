package rob

import (
	"galsim/internal/isa"
	"galsim/internal/snapshot"
)

// AppendState appends the ROB's snapshot section: its in-flight
// instructions oldest first, each written by put, then the raw activity
// counters.
func (r *ROB) AppendState(e *snapshot.Encoder, put func(*isa.Instr)) {
	e.Uvarint(uint64(r.n))
	for i := 0; i < r.n; i++ {
		put(r.buf[r.slot(i)])
	}
	for _, v := range [...]uint64{r.pushes, r.commits, r.squashes, r.occSum, r.occTicks} {
		e.Uvarint(v)
	}
}

// RestoreState reads a section AppendState wrote into a fresh, empty
// buffer of at least the captured occupancy, each entry read by get.
// Entries bypass Push so counters (and each record's historical ROBIndex,
// carried on the record itself) stay exactly as captured. Failures are
// recorded in d.
func (r *ROB) RestoreState(d *snapshot.Decoder, get func() *isa.Instr) {
	if r.n != 0 {
		d.Failf("rob: restore into non-empty buffer (%d entries)", r.n)
		return
	}
	n := d.Len(1)
	if n > len(r.buf) {
		d.Failf("rob: %d restored entries exceed capacity %d", n, len(r.buf))
		return
	}
	r.head = 0
	for i := 0; i < n; i++ {
		r.buf[i] = get()
	}
	r.n = n
	for _, v := range [...]*uint64{&r.pushes, &r.commits, &r.squashes, &r.occSum, &r.occTicks} {
		*v = d.Uvarint()
	}
}
