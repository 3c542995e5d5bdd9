package rob

import "galsim/internal/isa"

// Walk calls fn on every in-flight instruction from oldest to youngest.
func (r *ROB) Walk(fn func(*isa.Instr)) {
	for i := 0; i < r.n; i++ {
		fn(r.buf[r.slot(i)])
	}
}
