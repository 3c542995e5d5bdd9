package fifo

import (
	"galsim/internal/isa"
	"galsim/internal/simtime"
	"galsim/internal/snapshot"
)

// AppendLink appends a link's snapshot section: its entries in logical
// (head-first) order, each payload written by put, then its counters, a
// mixed-clock FIFO's pending slot-release times and a stretch link's open
// transaction (zero for other rules).
func AppendLink[T any](e *snapshot.Encoder, l *Link[T], put func(T)) {
	e.Uvarint(uint64(l.n))
	for i := 0; i < l.n; i++ {
		en := &l.buf[l.slot(i)]
		put(en.item)
		e.Uvarint(uint64(en.seq))
		e.Time(en.enqueued)
		e.Time(en.visibleAt)
	}
	e.Uvarint(l.stats.Puts)
	e.Uvarint(l.stats.Gets)
	e.Uvarint(l.stats.Flushed)
	e.Int(int(l.stats.TotalWait))
	e.Uvarint(l.stats.OccupancySum)
	e.Uvarint(uint64(len(l.freeAt)))
	for _, t := range l.freeAt {
		e.Time(t)
	}
	e.Time(l.busyUntil)
	e.Int(l.inFlight)
}

// RestoreLink reads a section AppendLink wrote into a freshly built, empty
// link from the same constructor and capacity, each payload read by get.
// Entries bypass Put so the captured per-entry visibility times and the
// counters are carried verbatim rather than recomputed. Failures are
// recorded in d.
func RestoreLink[T any](d *snapshot.Decoder, l *Link[T], get func() T) {
	if l.n != 0 {
		d.Failf("fifo: link %q: restore into non-empty link (%d entries)", l.name, l.n)
		return
	}
	// A payload, a sequence number and two times take a byte each at least.
	n := d.Len(4)
	if n > len(l.buf) {
		// The capture came from a ring that had grown past its rated
		// capacity (a stretch link admits transient overshoot); grow to fit.
		l.buf = make([]entry[T], n)
	}
	l.head = 0
	for i := 0; i < n; i++ {
		l.buf[i] = entry[T]{item: get(), seq: isa.Seq(d.Uvarint()), enqueued: d.Time(), visibleAt: d.Time()}
	}
	l.n = n
	l.stats = Stats{Puts: d.Uvarint(), Gets: d.Uvarint(), Flushed: d.Uvarint(),
		TotalWait: simtime.Duration(d.Int()), OccupancySum: d.Uvarint()}
	l.freeAt = l.freeAt[:0]
	for i, m := 0, d.Len(1); i < m; i++ {
		l.freeAt = append(l.freeAt, d.Time())
	}
	l.busyUntil = d.Time()
	l.inFlight = d.Int()
}
