package workload

import (
	"fmt"
	"math/rand"
	"sync"

	"galsim/internal/isa"
)

// CodeBase is the virtual address where generated code begins.
const CodeBase uint64 = 0x0040_0000

// DataBase is the virtual address where generated data begins.
const DataBase uint64 = 0x1000_0000

// branchPattern classifies a static branch's behaviour.
type branchPattern uint8

const (
	patBiased branchPattern = iota
	patLoop
	patAlternating
	patRandom
)

// staticInstr is one instruction of the lazily materialized static program.
// A given PC always decodes to the same instruction, like real code, so the
// branch predictor, BTB and I-cache observe self-consistent history.
type staticInstr struct {
	class isa.Class
	dest  isa.Reg
	src   [2]isa.Reg

	// Branch fields.
	pattern     branchPattern
	target      uint64
	biasedTaken bool // favored direction of a biased branch

	// Memory fields.
	seqStream bool // streams sequentially vs. random within the working set

	// made marks a materialized record; the table's other slots are zero.
	made bool

	// Dynamic ground-truth state of a static branch (advanced only by the
	// correct-path walk). Folded into the static record so branch outcome
	// tracking needs no separate map.
	lastTaken bool

	// order is the record's place in materialization order, which a
	// snapshot stores the program as (see state.go). It fills the padding
	// after the bools: the record stays 32 bytes.
	order uint32

	loopCount int
}

// A static-program page holds pageLen consecutive instructions.
const (
	pageBits = 9
	pageLen  = 1 << pageBits
)

// programPage is one page of the static-program table.
type programPage [pageLen]staticInstr

// pagePool holds the program pages of released generators.
var pagePool sync.Pool

// newPage returns a zeroed page, recycled when a released one is at hand.
func newPage() *programPage {
	if pg, ok := pagePool.Get().(*programPage); ok {
		clear(pg[:])
		return pg
	}
	return new(programPage)
}

// Generator produces the dynamic instruction stream of one benchmark run.
// It is deterministic for a given (Profile, seed) pair.
type Generator struct {
	prof Profile
	seed int64
	rng  *rand.Rand
	wp   *rand.Rand // separate stream for wrong-path choices

	// rngSrc/wpSrc are the counting wrappers underneath rng/wp; the draw
	// counts are the streams' snapshot identity (see state.go).
	rngSrc *countingSource
	wpSrc  *countingSource

	// program is the static-program table, indexed by (pc−CodeBase)/4 and
	// split into pages allocated on first touch, so a large code footprint
	// costs only the page directory until its code is visited.
	program   []*programPage
	classTile []isa.Class // class layout pattern, indexed by (pc/4) % len

	// Correct-path walk state.
	pc uint64

	// Wrong-path walk state.
	inWrongPath bool
	wpPC        uint64

	// Register recency rings for dependency-distance sampling, maintained in
	// static creation order.
	recentInt regRing
	recentFP  regRing
	destCtr   int
	fpDestCtr int

	// pool, when non-nil, supplies instruction records (see
	// workload.PoolUser); nil falls back to heap allocation.
	pool *isa.Pool

	// srand is the reusable lazily-seeded RNG for static-instruction
	// materialization (see staticRng).
	srand staticRand

	// materialized counts the materialized static instructions.
	materialized uint32

	// Data address state.
	seqCursor uint64

	generated uint64
	wrongGen  uint64
}

// NewGenerator builds a generator for a profile that passes
// Profile.Validate. It checks nothing: the built-in profiles are valid, and
// a user's profile is checked where it enters (ProfileSpec.Validate).
func NewGenerator(p Profile, seed int64) *Generator {
	rngSrc := newCountingSource(seed)
	wpSrc := newCountingSource(seed ^ 0x5DEECE66D)
	g := &Generator{
		prof:    p,
		seed:    seed,
		rng:     rand.New(rngSrc),
		wp:      rand.New(wpSrc),
		rngSrc:  rngSrc,
		wpSrc:   wpSrc,
		program: make([]*programPage, ((p.CodeFootprint+3)/4+pageLen-1)/pageLen),
		pc:      CodeBase,
	}
	// Seed the recency rings so early instructions have producers to name.
	for i := 0; i < 8; i++ {
		g.recentInt.push(isa.Reg{File: isa.RegInt, Index: uint8(i)})
		g.recentFP.push(isa.Reg{File: isa.RegFP, Index: uint8(i)})
	}
	g.classTile = buildClassTile(p.Mix, g.rng)
	return g
}

// tileLen is the period of the class layout pattern. Any contiguous run of
// tileLen instructions contains the profile mix in exact proportion, so the
// dynamic mix stays faithful even when execution concentrates in a few hot
// loops (as it does in real programs).
const tileLen = 256

// buildClassTile lays out tileLen instruction classes in the profile's exact
// proportions (largest-remainder rounding) and shuffles them.
func buildClassTile(m Mix, rng *rand.Rand) []isa.Class {
	type slot struct {
		class isa.Class
		frac  float64
	}
	slots := []slot{
		{isa.ClassBranch, m.Branch},
		{isa.ClassLoad, m.Load},
		{isa.ClassStore, m.Store},
		{isa.ClassFPAdd, m.FPAdd},
		{isa.ClassFPMul, m.FPMul},
		{isa.ClassFPDiv, m.FPDiv},
		{isa.ClassIntMul, m.IntMul},
	}
	tile := make([]isa.Class, 0, tileLen)
	for _, s := range slots {
		n := int(s.frac*tileLen + 0.5)
		for i := 0; i < n && len(tile) < tileLen; i++ {
			tile = append(tile, s.class)
		}
	}
	for len(tile) < tileLen {
		tile = append(tile, isa.ClassIntALU)
	}
	rng.Shuffle(len(tile), func(i, j int) { tile[i], tile[j] = tile[j], tile[i] })
	return tile
}

// classAt returns the instruction class at pc, from the layout tile.
func (g *Generator) classAt(pc uint64) isa.Class {
	return g.classTile[(pc>>2)%uint64(len(g.classTile))]
}

// Profile returns the generator's profile.
func (g *Generator) Profile() Profile { return g.prof }

// codeEnd returns the first address past the code footprint.
func (g *Generator) codeEnd() uint64 { return CodeBase + uint64(g.prof.CodeFootprint) }

// geometric samples a dependency distance >= 1 with parameter p, capped.
func (g *Generator) geometric(rng *staticRand) int {
	d := 1
	for d < 12 && rng.Float64() > g.prof.DepDistP {
		d++
	}
	return d
}

func (g *Generator) pickRecent(rng *staticRand, ring *regRing) isa.Reg {
	d := g.geometric(rng)
	if d > ring.len() {
		d = ring.len()
	}
	return ring.at(ring.len() - d)
}

// pickRecentFar is pickRecent with the distance shifted by extra producers:
// the named value was computed further back in the past.
func (g *Generator) pickRecentFar(rng *staticRand, ring *regRing, extra int) isa.Reg {
	d := g.geometric(rng) + extra
	if d > ring.len() {
		d = ring.len()
	}
	return ring.at(ring.len() - d)
}

func (g *Generator) pushRecent(r isa.Reg) {
	if r.File == isa.RegFP {
		g.recentFP.push(r)
		return
	}
	g.recentInt.push(r)
}

// nextIntDest allocates the next integer destination register, skipping the
// hardwired zero register.
func (g *Generator) nextIntDest() isa.Reg {
	r := isa.Reg{File: isa.RegInt, Index: uint8(g.destCtr % (isa.NumArchRegs - 1))}
	g.destCtr++
	return r
}

func (g *Generator) nextFPDest() isa.Reg {
	r := isa.Reg{File: isa.RegFP, Index: uint8(g.fpDestCtr % isa.NumArchRegs)}
	g.fpDestCtr++
	return r
}

// staticRng returns a deterministic RNG for materializing the static
// instruction at pc. Deriving it from (seed, pc) rather than from a shared
// stream makes the static program independent of materialization order, so
// a wrong-path excursion (which may materialize new PCs) cannot perturb the
// correct path's ground truth. The returned RNG is the generator's reusable
// staticRand, reseeded in place: draw-for-draw identical to
// rand.New(rand.NewSource(z)) but without expanding the full generator
// state per pc (see staticrand.go).
func (g *Generator) staticRng(pc uint64) *staticRand {
	z := uint64(g.seed) ^ (pc * 0x9E3779B97F4A7C15)
	// splitmix64 finalizer.
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	g.srand.reset(int64(z))
	return &g.srand
}

// slot returns the static-program table entry for pc, which must be a
// 4-aligned address inside the code footprint, allocating its page on first
// touch.
func (g *Generator) slot(pc uint64) *staticInstr {
	i := (pc - CodeBase) >> 2
	page := g.program[i>>pageBits]
	if page == nil {
		page = newPage()
		g.program[i>>pageBits] = page
	}
	return &page[i%pageLen]
}

// materialize returns the static instruction at pc, creating it on first
// visit.
func (g *Generator) materialize(pc uint64) *staticInstr {
	si := g.slot(pc)
	if si.made {
		return si
	}
	rng := g.staticRng(pc)
	si.made = true
	si.order = g.materialized
	g.materialized++
	si.class = g.classAt(pc)
	switch si.class {
	case isa.ClassBranch:
		// Branch conditions (loop counters, flags) are typically computed
		// well before the branch: shift the dependency distance so branches
		// usually find their operand already committed and resolve quickly.
		si.src[0] = g.pickRecentFar(rng, &g.recentInt, 4)
		x := rng.Float64()
		pm := g.prof.Patterns
		switch {
		case x < pm.Biased:
			si.pattern = patBiased
			si.biasedTaken = rng.Float64() < 0.65
			si.target = g.randomTarget(pc, rng)
		case x < pm.Biased+pm.Loop:
			si.pattern = patLoop
			si.target = g.loopTarget(pc, rng)
		case x < pm.Biased+pm.Loop+pm.Alternating:
			si.pattern = patAlternating
			si.target = g.randomTarget(pc, rng)
		default:
			si.pattern = patRandom
			si.target = g.randomTarget(pc, rng)
		}
	case isa.ClassLoad:
		si.src[0] = g.pickRecent(rng, &g.recentInt) // address register
		if rng.Float64() < g.prof.FPLoadFrac {
			si.dest = g.nextFPDest()
		} else {
			si.dest = g.nextIntDest()
		}
		si.seqStream = rng.Float64() < g.prof.SeqFrac
		g.pushRecent(si.dest)
	case isa.ClassStore:
		si.src[0] = g.pickRecent(rng, &g.recentInt) // address register
		if g.prof.FPLoadFrac > 0 && rng.Float64() < g.prof.FPLoadFrac {
			si.src[1] = g.pickRecent(rng, &g.recentFP)
		} else {
			si.src[1] = g.pickRecent(rng, &g.recentInt)
		}
		si.seqStream = rng.Float64() < g.prof.SeqFrac
	case isa.ClassFPAdd, isa.ClassFPMul, isa.ClassFPDiv:
		si.src[0] = g.pickRecent(rng, &g.recentFP)
		si.src[1] = g.pickRecent(rng, &g.recentFP)
		si.dest = g.nextFPDest()
		g.pushRecent(si.dest)
	default: // integer ALU / multiply
		si.src[0] = g.pickRecent(rng, &g.recentInt)
		if rng.Float64() < 0.45 {
			si.src[1] = g.pickRecent(rng, &g.recentInt)
		}
		si.dest = g.nextIntDest()
		g.pushRecent(si.dest)
	}
	return si
}

// branchGap returns the expected dynamic distance between branches, in
// instructions: the scale for branch hop and loop body sizes. Keeping
// control-transfer distances proportional to branch scarcity keeps the
// dynamic class mix close to the static one (a small loop body would
// otherwise over-weight its closing branch in the dynamic stream).
func (g *Generator) branchGap() int {
	if g.prof.Mix.Branch <= 0 {
		return 64
	}
	gap := int(1 / g.prof.Mix.Branch)
	if gap < 6 {
		gap = 6
	}
	if gap > 256 {
		gap = 256
	}
	return gap
}

// randomTarget picks a fixed branch target within the code footprint. All
// non-loop targets are strictly forward (if/else hops and calls); only loop
// branches jump backward. A backward non-loop target would form an
// unintended tight cycle pinned on its branch, grossly over-representing
// branch PCs in the dynamic stream.
func (g *Generator) randomTarget(pc uint64, rng *staticRand) uint64 {
	span := uint64(g.prof.CodeFootprint)
	var hop uint64
	if rng.Float64() < 0.85 {
		hop = uint64(rng.Intn(2*g.branchGap())+2) * 4 // short forward hop
	} else {
		hop = uint64(rng.Intn(g.prof.CodeFootprint/8)+8) * 4 // long-range hop
	}
	t := pc + hop
	if t >= CodeBase+span {
		t = CodeBase + (t-CodeBase)%span // wrap: one big cycle over the code
	}
	if t == pc { // avoid self-loop degenerate case
		t = pc + 4
		if t >= CodeBase+span {
			t = CodeBase
		}
	}
	return t
}

// loopTarget picks a backward target forming a loop body.
func (g *Generator) loopTarget(pc uint64, rng *staticRand) uint64 {
	gap := g.branchGap()
	body := uint64(rng.Intn(gap)+gap/2+1) * 4
	if pc < CodeBase+body {
		return CodeBase
	}
	return pc - body
}

// outcome computes and advances the ground-truth direction of the branch at
// pc. Only the correct path mutates branch state (held on the static
// record).
func (g *Generator) outcome(pc uint64, si *staticInstr) bool {
	switch si.pattern {
	case patBiased:
		if g.rng.Float64() < 0.97 {
			return si.biasedTaken
		}
		return !si.biasedTaken
	case patLoop:
		si.loopCount++
		if si.loopCount >= g.prof.LoopLength {
			si.loopCount = 0
			return false // exit the loop
		}
		return true
	case patAlternating:
		si.lastTaken = !si.lastTaken
		return si.lastTaken
	default:
		return g.rng.Float64() < g.prof.RandomTakenProb
	}
}

// hotRegionBytes is the size of the high-locality data region (stack frames
// and hot heap objects) that non-streaming accesses favour. Real programs
// concentrate the bulk of their references on a cache-resident hot set; a
// uniform draw over the working set would produce data-cache hit rates far
// below anything Spec95 exhibits.
const hotRegionBytes = 8 << 10

// hotFraction is the probability that a non-streaming access falls in the
// hot region.
const hotFraction = 0.90

// dataAddr produces the effective address for a memory instruction.
func (g *Generator) dataAddr(si *staticInstr, rng *rand.Rand) uint64 {
	ws := uint64(g.prof.DataWorkingSet)
	if si.seqStream {
		a := DataBase + g.seqCursor
		g.seqCursor += uint64(g.prof.StrideBytes)
		if g.seqCursor >= ws {
			g.seqCursor = 0
		}
		return a
	}
	hot := uint64(hotRegionBytes)
	if hot > ws {
		hot = ws
	}
	if rng.Float64() < hotFraction {
		// Hot region sits at the top of the address space, clear of the
		// streaming cursors.
		return DataBase + ws + uint64(rng.Int63n(int64(hot)))&^7
	}
	return DataBase + uint64(rng.Int63n(int64(ws)))&^7
}

// fill populates an instruction record from the static program entry.
func (g *Generator) fill(in *isa.Instr, pc uint64, si *staticInstr, rng *rand.Rand) {
	in.Src = si.src
	in.Dest = si.dest
	if si.class.IsMem() {
		in.Addr = g.dataAddr(si, rng)
	}
}

// Next produces the next correct-path instruction; the walk follows the
// ground-truth direction of every branch.
func (g *Generator) Next() *isa.Instr {
	if g.inWrongPath {
		panic("workload: Next called while in wrong-path mode")
	}
	pc := g.pc
	si := g.materialize(pc)
	in := g.newInstr(pc, si.class)
	g.fill(in, pc, si, g.rng)

	next := pc + 4
	if si.class == isa.ClassBranch {
		taken := g.outcome(pc, si)
		in.Taken = taken
		in.Target = si.target
		if taken {
			next = si.target
		}
	}
	if next >= g.codeEnd() {
		next = CodeBase
	}
	g.pc = next
	g.generated++
	return in
}

// StartWrongPath begins producing instructions from target (the mispredicted
// direction's address). If target is 0 (a taken prediction with a BTB miss),
// the walk continues from fallthrough+4 — junk fetch, as in hardware.
func (g *Generator) StartWrongPath(target uint64) {
	if g.inWrongPath {
		panic("workload: StartWrongPath while already in wrong-path mode")
	}
	g.inWrongPath = true
	if target < CodeBase || target >= g.codeEnd() {
		target = CodeBase + (target % uint64(g.prof.CodeFootprint))
		target &^= 3
	}
	g.wpPC = target
}

// NextWrongPath produces the next wrong-path instruction. Wrong-path
// branches follow plausible directions (biased branches their bias, others a
// coin flip) but never mutate ground-truth branch state.
func (g *Generator) NextWrongPath() *isa.Instr {
	if !g.inWrongPath {
		panic("workload: NextWrongPath outside wrong-path mode")
	}
	pc := g.wpPC
	si := g.materialize(pc)
	in := g.newInstr(pc, si.class)
	in.WrongPath = true
	g.fill(in, pc, si, g.wp)

	next := pc + 4
	if si.class == isa.ClassBranch {
		taken := si.biasedTaken
		if si.pattern != patBiased {
			taken = g.wp.Float64() < 0.5
		}
		in.Taken = taken
		in.Target = si.target
		if taken {
			next = si.target
		}
	}
	if next >= g.codeEnd() {
		next = CodeBase
	}
	g.wpPC = next
	g.wrongGen++
	return in
}

// EndWrongPath returns to correct-path mode (the mispredicted branch has
// resolved and the front end was redirected).
func (g *Generator) EndWrongPath() {
	if !g.inWrongPath {
		panic("workload: EndWrongPath outside wrong-path mode")
	}
	g.inWrongPath = false
}

// InWrongPath reports whether the generator is producing wrong-path
// instructions.
func (g *Generator) InWrongPath() bool { return g.inWrongPath }

// CurrentPC returns the address of the instruction the next Next (or
// NextWrongPath) call will produce. The fetch stage uses it for the I-cache
// access that precedes instruction delivery.
func (g *Generator) CurrentPC() uint64 {
	if g.inWrongPath {
		return g.wpPC
	}
	return g.pc
}

// String implements fmt.Stringer.
func (g *Generator) String() string {
	return fmt.Sprintf("workload %s (%s): %d instrs generated, %d wrong-path",
		g.prof.Name, g.prof.Suite, g.generated, g.wrongGen)
}

// UsePool implements PoolUser: subsequent instructions are allocated from p
// (nil reverts to the heap).
func (g *Generator) UsePool(p *isa.Pool) bool {
	g.pool = p
	return true
}

// Release implements Releaser: the program pages go to later generators.
func (g *Generator) Release() {
	for _, pg := range g.program {
		if pg != nil {
			pagePool.Put(pg)
		}
	}
	g.program = nil
}

// newInstr allocates one blank instruction record, from the arena when one
// is installed.
func (g *Generator) newInstr(pc uint64, class isa.Class) *isa.Instr {
	if g.pool != nil {
		return g.pool.Get(0, pc, class)
	}
	return isa.NewInstr(0, pc, class)
}

// recentWindow is the depth of the register recency rings: how far back a
// sampled dependency can reach.
const recentWindow = 24

// regRing is a fixed-capacity ring of recently written registers. It
// replaces an append-and-trim slice so the per-instruction path performs no
// allocation: pushing into a full ring overwrites the oldest entry in place.
type regRing struct {
	buf  [recentWindow]isa.Reg
	head int // index of the oldest entry
	n    int
}

func (r *regRing) len() int { return r.n }

// at returns the i-th entry, oldest first.
func (r *regRing) at(i int) isa.Reg {
	i += r.head
	if i >= len(r.buf) {
		i -= len(r.buf)
	}
	return r.buf[i]
}

// push appends a register, evicting the oldest entry once full.
func (r *regRing) push(reg isa.Reg) {
	if r.n < len(r.buf) {
		i := r.head + r.n
		if i >= len(r.buf) {
			i -= len(r.buf)
		}
		r.buf[i] = reg
		r.n++
		return
	}
	r.buf[r.head] = reg
	r.head++
	if r.head == len(r.buf) {
		r.head = 0
	}
}
