package workload

import "galsim/internal/isa"

// InstrSource is the pipeline front-end's view of a workload: a supplier of
// dynamic instructions with ground-truth branch outcomes and memory
// addresses, plus a wrong-path mode entered after a misprediction and left
// when the redirect arrives.
//
// The synthetic Generator is the canonical implementation; trace replay
// (internal/trace.ReplaySource) and the phased multi-profile generator
// implement the same contract, so the simulated machine is indifferent to
// where its instruction stream comes from.
//
// Contract, mirroring Generator's semantics:
//
//   - Next may only be called outside wrong-path mode, NextWrongPath only
//     inside it; violations panic (they are simulator bugs, not input
//     errors).
//   - StartWrongPath(target) enters wrong-path mode at the mispredicted
//     target (0 = junk fetch past the branch); EndWrongPath leaves it.
//   - CurrentPC reports the address of the instruction the next Next (or
//     NextWrongPath) call will produce, without advancing; the fetch stage
//     uses it for the I-cache access that precedes delivery.
//   - The produced stream must be deterministic: two sources constructed
//     identically and driven with the same call sequence must produce
//     identical instructions.
type InstrSource interface {
	Next() *isa.Instr
	NextWrongPath() *isa.Instr
	StartWrongPath(target uint64)
	EndWrongPath()
	InWrongPath() bool
	CurrentPC() uint64
}

// PoolUser is implemented by sources that can allocate their instruction
// records from a caller-owned arena (isa.Pool) instead of the heap. The
// pipeline hands its pool to the source before the run starts and recycles
// each record when the last pipeline structure releases it, making the
// per-instruction path allocation-free. UsePool reports whether the source
// will actually allocate from the pool — a wrapper around a non-pooling
// source must return false so the caller leaves recycling off (recycling
// heap-allocated records would corrupt the arena's reference accounting).
// UsePool(nil) reverts the source to ordinary heap allocation; records from
// either path are identical, so pooling never changes simulation results.
type PoolUser interface {
	UsePool(*isa.Pool) bool
}

// Releaser is implemented by sources holding large tables — the
// generator's static-program pages — that later sources can reuse. The
// pipeline's Core.Release calls Release once a run is over; the source must
// not be used afterwards, and releasing twice is a no-op.
type Releaser interface {
	Release()
}

// Compile-time checks that the package's sources satisfy the interfaces.
var (
	_ InstrSource = (*Generator)(nil)
	_ InstrSource = (*PhasedGenerator)(nil)
	_ PoolUser    = (*Generator)(nil)
	_ PoolUser    = (*PhasedGenerator)(nil)
	_ Releaser    = (*Generator)(nil)
	_ Releaser    = (*PhasedGenerator)(nil)
)
