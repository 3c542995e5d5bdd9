package workload

import (
	"fmt"

	"galsim/internal/isa"
)

// PhasedGenerator cycles through a sequence of per-phase Generators: phase i
// supplies quota[i] correct-path instructions, then the stream moves to
// phase i+1 (wrapping after the last phase), like a program moving between
// computation phases. Each phase keeps its own persistent Generator, so a
// revisited phase resumes its static program — the same loops and data
// structures — rather than re-entering fresh code.
//
// Phase switches happen only between correct-path instructions; wrong-path
// excursions are delegated wholesale to whichever phase is current when the
// front end enters wrong-path mode, so a single generator always owns an
// entire excursion.
type PhasedGenerator struct {
	name   string
	profs  []Profile
	quotas []uint64
	seed   int64

	gens     []*Generator // lazily constructed, persistent per phase
	idx      int
	curCount uint64 // correct-path instructions produced in the current phase

	pool *isa.Pool // propagated to each phase generator (see PoolUser)

	generated uint64
	switches  uint64
}

// UsePool implements PoolUser, propagating the arena to every phase
// generator — both the already-constructed ones and those still to be built
// lazily by cur.
func (p *PhasedGenerator) UsePool(pool *isa.Pool) bool {
	p.pool = pool
	for _, g := range p.gens {
		if g != nil {
			g.UsePool(pool)
		}
	}
	return true
}

// Release implements Releaser, releasing every constructed phase generator.
func (p *PhasedGenerator) Release() {
	for _, g := range p.gens {
		if g != nil {
			g.Release()
		}
	}
}

// NewPhasedGenerator builds a phased source. The profiles must pass
// Profile.Validate (ProfileSpec.Validate checks them); quotas must be
// positive and the two slices equal-length, or the constructor panics.
func NewPhasedGenerator(name string, profs []Profile, quotas []uint64, seed int64) *PhasedGenerator {
	if len(profs) == 0 || len(profs) != len(quotas) {
		panic(fmt.Sprintf("workload: phased generator wants matching non-empty profiles/quotas, got %d/%d",
			len(profs), len(quotas)))
	}
	for i, q := range quotas {
		if q == 0 {
			panic(fmt.Sprintf("workload: phased generator phase %d has zero quota", i))
		}
	}
	return &PhasedGenerator{name: name, profs: profs, quotas: quotas, seed: seed,
		gens: make([]*Generator, len(profs))}
}

// cur returns the current phase's generator, constructing it on first use.
// Phase seeds are decorrelated so two phases sharing a profile still walk
// distinct static programs.
func (p *PhasedGenerator) cur() *Generator {
	if p.gens[p.idx] == nil {
		g := NewGenerator(p.profs[p.idx], p.seed+int64(p.idx)*0x9E3779B9)
		g.UsePool(p.pool)
		p.gens[p.idx] = g
	}
	return p.gens[p.idx]
}

// Next produces the next correct-path instruction, advancing to the next
// phase once the current one's quota is exhausted.
func (p *PhasedGenerator) Next() *isa.Instr {
	g := p.cur()
	in := g.Next()
	p.generated++
	p.curCount++
	if p.curCount >= p.quotas[p.idx] {
		p.curCount = 0
		p.idx = (p.idx + 1) % len(p.profs)
		p.switches++
	}
	return in
}

// NextWrongPath produces the next wrong-path instruction from the phase the
// excursion started in.
func (p *PhasedGenerator) NextWrongPath() *isa.Instr { return p.cur().NextWrongPath() }

// StartWrongPath enters wrong-path mode at target.
func (p *PhasedGenerator) StartWrongPath(target uint64) { p.cur().StartWrongPath(target) }

// EndWrongPath returns to correct-path mode.
func (p *PhasedGenerator) EndWrongPath() { p.cur().EndWrongPath() }

// InWrongPath reports whether the source is in wrong-path mode.
func (p *PhasedGenerator) InWrongPath() bool { return p.cur().InWrongPath() }

// CurrentPC returns the address of the instruction the next produce call
// will deliver.
func (p *PhasedGenerator) CurrentPC() uint64 { return p.cur().CurrentPC() }

// Phase returns the current phase index.
func (p *PhasedGenerator) Phase() int { return p.idx }

// String implements fmt.Stringer.
func (p *PhasedGenerator) String() string {
	return fmt.Sprintf("workload %s: %d phases, %d instrs generated, %d switches",
		p.name, len(p.profs), p.generated, p.switches)
}
