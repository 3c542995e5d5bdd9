package fifo

import "galsim/internal/isa"

// FlushYoungerThan discards every entry with sequence number > seq and
// returns the number discarded.
func (l *Link[T]) FlushYoungerThan(seq isa.Seq) int {
	return l.flush(func(e *entry[T]) bool { return e.seq > seq })
}
