package workload

import (
	"fmt"
	"math/rand"
	"sync"

	"galsim/internal/isa"
	"galsim/internal/snapshot"
)

// Snapshotter is implemented by instruction sources whose position can be
// captured at a quiescent point and reinstated into a freshly constructed,
// identically configured source. The contract mirrors InstrSource
// determinism: after RestoreSourceState, the restored source must produce
// exactly the stream the captured one would have produced from that point.
type Snapshotter interface {
	// AppendSourceState appends the source's snapshot section.
	AppendSourceState(e *snapshot.Encoder)
	// RestoreSourceState reads a section AppendSourceState wrote into this
	// source, which must be freshly constructed (nothing produced yet) with
	// the same configuration the capture came from. Failures are recorded
	// in d.
	RestoreSourceState(d *snapshot.Decoder)
}

var (
	_ Snapshotter = (*Generator)(nil)
	_ Snapshotter = (*PhasedGenerator)(nil)
)

// countingSource wraps math/rand's source, counting state advances. Both
// Int63 and Uint64 advance the underlying generator by exactly one step, so
// the count alone identifies the stream position: a fresh source fast-
// forwarded by (saved − current) Uint64 draws is draw-for-draw identical.
type countingSource struct {
	src rand.Source64
	n   uint64
}

func newCountingSource(seed int64) *countingSource {
	return &countingSource{src: rand.NewSource(seed).(rand.Source64)}
}

func (c *countingSource) Int63() int64 {
	c.n++
	return c.src.Int63()
}

func (c *countingSource) Uint64() uint64 {
	c.n++
	return c.src.Uint64()
}

func (c *countingSource) Seed(seed int64) {
	c.src.Seed(seed)
	c.n = 0
}

// fastForward advances the stream to the target draw count.
func (c *countingSource) fastForward(target uint64) error {
	if target < c.n {
		return fmt.Errorf("workload: RNG stream at draw %d cannot rewind to %d", c.n, target)
	}
	for c.n < target {
		c.Uint64()
	}
	return nil
}

// maxDrawsPerInstr bounds the RNG draws a restore accepts per instruction
// produced: an instruction draws at most three values but for the rare
// retries of rejection sampling.
const maxDrawsPerInstr = 64

// orderPool holds the scratch tables captures put a program's visit order
// in.
var orderPool sync.Pool

// AppendSourceState implements Snapshotter. The section holds the RNG
// streams' draw counts, the walk state, and the static program as the
// order in which its PCs were first visited: the zigzag delta of each
// pc/4 from the previous one, then the branches whose loop count or last
// direction is not zero, in PC order. The records themselves are not
// stored: restore materializes the PCs again in the same order, and since
// materialization alone advances the register recency rings and the
// destination counters, that rebuilds them and every record exactly.
func (g *Generator) AppendSourceState(e *snapshot.Encoder) {
	e.Uvarint(g.rngSrc.n)
	e.Uvarint(g.wpSrc.n)
	e.Uvarint(g.pc)
	e.Uvarint(g.wpPC)
	e.Bool(g.inWrongPath)
	e.Uvarint(g.seqCursor)
	e.Uvarint(g.generated)
	e.Uvarint(g.wrongGen)

	// Place each made PC at its visit index: one pass, no sort.
	op, _ := orderPool.Get().(*[]uint32)
	if op == nil {
		op = new([]uint32)
	}
	order := (*op)[:0]
	order = append(order, make([]uint32, g.materialized)...)
	live := 0
	for p, page := range g.program {
		if page == nil {
			continue
		}
		for i := range page {
			if si := &page[i]; si.made {
				order[si.order] = uint32(p*pageLen + i)
				if si.loopCount != 0 || si.lastTaken {
					live++
				}
			}
		}
	}
	e.Uvarint(uint64(len(order)))
	prev := 0
	for _, idx := range order {
		e.Int(int(idx) - prev)
		prev = int(idx)
	}
	*op = order
	orderPool.Put(op)

	e.Uvarint(uint64(live))
	next := 0
	for p, page := range g.program {
		if page == nil {
			continue
		}
		for i := range page {
			if si := &page[i]; si.made && (si.loopCount != 0 || si.lastTaken) {
				idx := p*pageLen + i
				e.Uvarint(uint64(idx - next))
				e.Int(si.loopCount)
				e.Bool(si.lastTaken)
				next = idx + 1
			}
		}
	}
}

// RestoreSourceState implements Snapshotter.
func (g *Generator) RestoreSourceState(d *snapshot.Decoder) {
	if g.generated != 0 || g.wrongGen != 0 || g.materialized != 0 {
		d.Failf("workload: restore into generator that has already produced instructions")
		return
	}
	rngDraws, wpDraws := d.Uvarint(), d.Uvarint()
	g.pc, g.wpPC, g.inWrongPath = d.Uvarint(), d.Uvarint(), d.Bool()
	g.seqCursor, g.generated, g.wrongGen = d.Uvarint(), d.Uvarint(), d.Uvarint()
	if d.Err() != nil {
		return
	}
	if g.pc < CodeBase || g.pc >= g.codeEnd() || g.pc%4 != 0 {
		d.Failf("workload: restored pc %#x outside the code [%#x, %#x) or not 4-aligned", g.pc, CodeBase, g.codeEnd())
		return
	}
	// A correct-path instruction draws a few values of the main stream and
	// a wrong-path one of the other; a count far beyond that is corrupt,
	// and fast-forwarding to it would spin for as long as it claims.
	if rngDraws > g.rngSrc.n+maxDrawsPerInstr*(g.generated+1) || wpDraws > maxDrawsPerInstr*(g.wrongGen+1) {
		d.Failf("workload: restored RNG draw counts (%d, %d) implausible for %d correct-path and %d wrong-path instructions",
			rngDraws, wpDraws, g.generated, g.wrongGen)
		return
	}
	if err := g.rngSrc.fastForward(rngDraws); err != nil {
		d.Failf("%w", err)
		return
	}
	if err := g.wpSrc.fastForward(wpDraws); err != nil {
		d.Failf("%w", err)
		return
	}
	size := (g.codeEnd() - CodeBase) / 4
	idx := 0
	for k, n := 0, d.Len(1); k < n; k++ {
		idx += d.Int()
		if d.Err() != nil {
			return
		}
		if idx < 0 || uint64(idx) >= size {
			d.Failf("workload: restored static instruction %d outside the code's %d instructions", idx, size)
			return
		}
		pc := CodeBase + uint64(idx)*4
		if g.slot(pc).made {
			d.Failf("workload: restored static instruction at pc %#x repeated", pc)
			return
		}
		g.materialize(pc)
	}
	next := uint64(0)
	for k, n := 0, d.Len(2); k < n; k++ {
		gap := d.Uvarint()
		if d.Err() != nil {
			return
		}
		if gap >= size-next {
			d.Failf("workload: restored branch state past the code's %d instructions", size)
			return
		}
		i := next + gap
		si := g.slot(CodeBase + i*4)
		if !si.made || si.class != isa.ClassBranch {
			d.Failf("workload: restored branch state for pc %#x, which holds no materialized branch", CodeBase+i*4)
			return
		}
		if si.loopCount, si.lastTaken = d.Int(), d.Bool(); si.loopCount == 0 && !si.lastTaken {
			d.Failf("workload: restored branch state for pc %#x is all zero", CodeBase+i*4)
		}
		next = i + 1
	}
}

// AppendSourceState implements Snapshotter: the phase cursor and counters,
// then, per phase, whether its generator was built and that generator's
// section.
func (p *PhasedGenerator) AppendSourceState(e *snapshot.Encoder) {
	e.Int(p.idx)
	e.Uvarint(p.curCount)
	e.Uvarint(p.generated)
	e.Uvarint(p.switches)
	e.Uvarint(uint64(len(p.gens)))
	for _, g := range p.gens {
		e.Bool(g != nil)
		if g != nil {
			g.AppendSourceState(e)
		}
	}
}

// RestoreSourceState implements Snapshotter.
func (p *PhasedGenerator) RestoreSourceState(d *snapshot.Decoder) {
	if p.generated != 0 {
		d.Failf("workload: restore into phased generator that has already produced instructions")
		return
	}
	p.idx, p.curCount, p.generated, p.switches = d.Int(), d.Uvarint(), d.Uvarint(), d.Uvarint()
	if n := d.Uvarint(); d.Err() == nil && n != uint64(len(p.gens)) {
		d.Failf("workload: restored state has %d phases, this source has %d", n, len(p.gens))
		return
	}
	if d.Err() == nil && (p.idx < 0 || p.idx >= len(p.gens)) {
		d.Failf("workload: restored phase index %d outside [0, %d)", p.idx, len(p.gens))
		return
	}
	for i := range p.gens {
		p.gens[i] = nil
		if d.Bool() {
			p.gens[i] = NewGenerator(p.profs[i], p.seed+int64(i)*0x9E3779B9)
			p.gens[i].UsePool(p.pool)
			p.gens[i].RestoreSourceState(d)
		}
	}
}
