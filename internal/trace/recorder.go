package trace

import (
	"galsim/internal/isa"
	"galsim/internal/workload"
)

// Recorder is a capture tap: it wraps any workload.InstrSource, delegates
// every call, and writes the delivered stream as trace records, so a run is
// recorded exactly as the pipeline consumed it — including wrong-path
// excursions and their boundaries.
type Recorder struct {
	src  workload.InstrSource
	w    *Writer
	inWP bool
}

var (
	_ workload.InstrSource = (*Recorder)(nil)
	_ workload.PoolUser    = (*Recorder)(nil)
	_ workload.Releaser    = (*Recorder)(nil)
)

// Release implements workload.Releaser by forwarding to the wrapped source
// when it holds recyclable tables.
func (r *Recorder) Release() {
	if rl, ok := r.src.(workload.Releaser); ok {
		rl.Release()
	}
}

// UsePool implements workload.PoolUser by forwarding the arena to the
// wrapped source when it supports pooling, reporting false — pooling off —
// when it does not, so the pipeline never recycles records a non-pooling
// source heap-allocated. The recorder itself retains no *Instr — every
// record is serialized before the instruction is handed to the pipeline —
// so recording composes safely with arena recycling.
func (r *Recorder) UsePool(p *isa.Pool) bool {
	if pu, ok := r.src.(workload.PoolUser); ok {
		return pu.UsePool(p)
	}
	return false
}

// NewRecorder taps src, writing records through w.
func NewRecorder(src workload.InstrSource, w *Writer) *Recorder {
	return &Recorder{src: src, w: w}
}

// Next delegates and records a correct-path instruction.
func (r *Recorder) Next() *isa.Instr {
	in := r.src.Next()
	r.w.Instr(in)
	return in
}

// NextWrongPath delegates and records a wrong-path instruction.
func (r *Recorder) NextWrongPath() *isa.Instr {
	in := r.src.NextWrongPath()
	r.w.Instr(in)
	return in
}

// StartWrongPath delegates, then records the excursion boundary with the
// source's *normalized* entry pc (CurrentPC after entering wrong-path
// mode), so replay reproduces the exact fetch addresses the I-cache saw.
func (r *Recorder) StartWrongPath(target uint64) {
	r.src.StartWrongPath(target)
	r.w.StartWrongPath(r.src.CurrentPC())
	r.inWP = true
}

// EndWrongPath records the excursion boundary with the wrong-path fetch pc
// pending at redirect time (queried before delegating, while the source is
// still in wrong-path mode), then delegates.
func (r *Recorder) EndWrongPath() {
	r.w.EndWrongPath(r.src.CurrentPC())
	r.src.EndWrongPath()
	r.inWP = false
}

// InWrongPath delegates.
func (r *Recorder) InWrongPath() bool { return r.src.InWrongPath() }

// CurrentPC delegates.
func (r *Recorder) CurrentPC() uint64 { return r.src.CurrentPC() }

// Close balances a dangling excursion (a run that ended mid-wrong-path)
// so every start record has a matching end, then flushes the writer and
// reports the stream's first error.
func (r *Recorder) Close() error {
	if r.inWP {
		r.w.EndWrongPath(r.src.CurrentPC())
		r.inWP = false
	}
	return r.w.Flush()
}
