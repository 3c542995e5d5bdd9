// Package rob implements the reorder buffer: the in-order backbone of the
// out-of-order core. Instructions enter at rename in program order, record
// their completion out of order, and leave either by in-order commit from
// the head or by a squash that discards every wrong-path entry from the
// tail while undoing its rename mapping.
package rob

import (
	"fmt"

	"galsim/internal/isa"
)

// ROB is a bounded in-order buffer of in-flight instructions, stored as a
// fixed-capacity ring so that a commit advances the head pointer instead of
// shifting the buffer — hardware ROBs are circular buffers for the same
// reason.
type ROB struct {
	buf  []*isa.Instr // len(buf) is the capacity
	head int          // index of the oldest entry
	n    int          // occupancy

	pushes   uint64
	commits  uint64
	squashes uint64
	occSum   uint64
	occTicks uint64
}

// New builds a reorder buffer with the given capacity.
func New(capacity int) *ROB {
	if capacity <= 0 {
		panic(fmt.Sprintf("rob: capacity %d must be positive", capacity))
	}
	return &ROB{buf: make([]*isa.Instr, capacity)}
}

// slot maps a logical position (0 = head) to a buffer index.
func (r *ROB) slot(i int) int {
	i += r.head
	if i >= len(r.buf) {
		i -= len(r.buf)
	}
	return i
}

// Len returns the number of in-flight instructions.
func (r *ROB) Len() int { return r.n }

// Cap returns the capacity.
func (r *ROB) Cap() int { return len(r.buf) }

// Full reports whether the buffer has no free entry.
func (r *ROB) Full() bool { return r.n >= len(r.buf) }

// Empty reports whether no instruction is in flight.
func (r *ROB) Empty() bool { return r.n == 0 }

// Push appends an instruction in program order; it panics when full and when
// program order would be violated.
func (r *ROB) Push(in *isa.Instr) {
	if r.Full() {
		panic("rob: overflow")
	}
	if r.n > 0 {
		if tail := r.buf[r.slot(r.n-1)]; tail.Seq >= in.Seq {
			panic(fmt.Sprintf("rob: out-of-order push %d after %d", in.Seq, tail.Seq))
		}
	}
	in.ROBIndex = r.n
	r.buf[r.slot(r.n)] = in
	r.n++
	r.pushes++
}

// Head returns the oldest in-flight instruction, or nil when empty.
func (r *ROB) Head() *isa.Instr {
	if r.n == 0 {
		return nil
	}
	return r.buf[r.head]
}

// PopHead removes the oldest instruction (its commit). It panics when empty.
func (r *ROB) PopHead() *isa.Instr {
	if r.n == 0 {
		panic("rob: PopHead on empty buffer")
	}
	in := r.buf[r.head]
	r.buf[r.head] = nil
	r.head++
	if r.head == len(r.buf) {
		r.head = 0
	}
	r.n--
	r.commits++
	return in
}

// SquashTail removes doomed entries from the tail, youngest first, invoking
// undo on each in reverse program order (the order rename recovery
// requires). The doomed region must be a contiguous tail suffix — a
// consequence of a single unresolved misprediction at a time — and this is
// checked. Returns the number squashed.
func (r *ROB) SquashTail(doomed func(*isa.Instr) bool, undo func(*isa.Instr)) int {
	cut := r.n
	for cut > 0 && doomed(r.buf[r.slot(cut-1)]) {
		cut--
	}
	for i := 0; i < cut; i++ {
		if in := r.buf[r.slot(i)]; doomed(in) {
			panic(fmt.Sprintf("rob: doomed entry %d not in tail suffix", in.Seq))
		}
	}
	n := 0
	for i := r.n - 1; i >= cut; i-- {
		s := r.slot(i)
		undo(r.buf[s])
		r.buf[s] = nil
		n++
	}
	r.n = cut
	r.squashes += uint64(n)
	return n
}

// Tick records an occupancy sample; call once per cycle of the owning
// domain.
func (r *ROB) Tick() {
	r.occTicks++
	r.occSum += uint64(r.n)
}

// Stats reports ROB activity.
type Stats struct {
	Pushes       uint64
	Commits      uint64
	Squashes     uint64
	AvgOccupancy float64
}

// Stats returns a snapshot of the counters.
func (r *ROB) Stats() Stats {
	s := Stats{Pushes: r.pushes, Commits: r.commits, Squashes: r.squashes}
	if r.occTicks > 0 {
		s.AvgOccupancy = float64(r.occSum) / float64(r.occTicks)
	}
	return s
}
