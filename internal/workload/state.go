package workload

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"galsim/internal/isa"
)

// Snapshotter is implemented by instruction sources whose position can be
// captured at a quiescent point and reinstated into a freshly constructed,
// identically configured source. The contract mirrors InstrSource
// determinism: after RestoreSourceState, the restored source must produce
// exactly the stream the captured one would have produced from that point.
type Snapshotter interface {
	// CaptureSourceState serializes the source's position.
	CaptureSourceState() (json.RawMessage, error)
	// RestoreSourceState reinstates a captured position into this source,
	// which must be freshly constructed (nothing produced yet) with the same
	// configuration the capture came from.
	RestoreSourceState(raw json.RawMessage) error
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

// StaticInstrState is one materialized static instruction in snapshot form.
// The full record is serialized rather than re-materialized on restore: the
// register recency rings feeding dependency sampling advance with each
// materialization, so the static program depends on the order PCs were
// first visited — state that only the capture knows.
type StaticInstrState struct {
	PC          uint64     `json:"pc"`
	Class       isa.Class  `json:"class"`
	Dest        isa.Reg    `json:"dest"`
	Src         [2]isa.Reg `json:"src"`
	Pattern     uint8      `json:"pattern,omitempty"`
	Target      uint64     `json:"target,omitempty"`
	BiasedTaken bool       `json:"biased_taken,omitempty"`
	SeqStream   bool       `json:"seq_stream,omitempty"`
	LoopCount   int        `json:"loop_count,omitempty"`
	LastTaken   bool       `json:"last_taken,omitempty"`
}

// GeneratorState is a Generator's snapshot form.
type GeneratorState struct {
	RNGDraws  uint64 `json:"rng_draws"`
	WPDraws   uint64 `json:"wp_draws"`
	PC        uint64 `json:"pc"`
	WpPC      uint64 `json:"wp_pc"`
	InWP      bool   `json:"in_wp,omitempty"`
	SeqCursor uint64 `json:"seq_cursor"`
	Generated uint64 `json:"generated"`
	WrongGen  uint64 `json:"wrong_gen"`
	DestCtr   int    `json:"dest_ctr"`
	FPDestCtr int    `json:"fp_dest_ctr"`
	// RecentInt/RecentFP are the register recency rings, oldest first.
	RecentInt []isa.Reg          `json:"recent_int"`
	RecentFP  []isa.Reg          `json:"recent_fp"`
	Program   []StaticInstrState `json:"program,omitempty"`
}

// CaptureState snapshots the generator.
func (g *Generator) CaptureState() GeneratorState {
	st := GeneratorState{
		RNGDraws:  g.rngSrc.n,
		WPDraws:   g.wpSrc.n,
		PC:        g.pc,
		WpPC:      g.wpPC,
		InWP:      g.inWrongPath,
		SeqCursor: g.seqCursor,
		Generated: g.generated,
		WrongGen:  g.wrongGen,
		DestCtr:   g.destCtr,
		FPDestCtr: g.fpDestCtr,
	}
	for i := 0; i < g.recentInt.len(); i++ {
		st.RecentInt = append(st.RecentInt, g.recentInt.at(i))
	}
	for i := 0; i < g.recentFP.len(); i++ {
		st.RecentFP = append(st.RecentFP, g.recentFP.at(i))
	}
	// The table is in PC order, so the program comes out sorted.
	for p, page := range g.program {
		if page == nil {
			continue
		}
		for i := range page {
			si := &page[i]
			if !si.made {
				continue
			}
			st.Program = append(st.Program, StaticInstrState{
				PC: CodeBase + uint64(p*pageLen+i)*4, Class: si.class, Dest: si.dest, Src: si.src,
				Pattern: uint8(si.pattern), Target: si.target, BiasedTaken: si.biasedTaken,
				SeqStream: si.seqStream, LoopCount: si.loopCount, LastTaken: si.lastTaken,
			})
		}
	}
	return st
}

// RestoreState reinstates a captured state into this generator, which must
// be freshly constructed with the same (Profile, seed) pair.
func (g *Generator) RestoreState(st GeneratorState) error {
	if g.generated != 0 || g.wrongGen != 0 {
		return fmt.Errorf("workload: restore into generator that has already produced instructions")
	}
	for _, page := range g.program {
		if page != nil {
			return fmt.Errorf("workload: restore into generator that has already produced instructions")
		}
	}
	if len(st.RecentInt) > recentWindow || len(st.RecentFP) > recentWindow {
		return fmt.Errorf("workload: restored recency rings (%d int, %d fp) exceed window %d",
			len(st.RecentInt), len(st.RecentFP), recentWindow)
	}
	if err := g.rngSrc.fastForward(st.RNGDraws); err != nil {
		return err
	}
	if err := g.wpSrc.fastForward(st.WPDraws); err != nil {
		return err
	}
	for _, ss := range st.Program {
		if ss.PC < CodeBase || ss.PC >= g.codeEnd() || ss.PC%4 != 0 {
			return fmt.Errorf("workload: restored static instruction at pc %#x outside the code [%#x, %#x) or not 4-aligned",
				ss.PC, CodeBase, g.codeEnd())
		}
		si := g.slot(ss.PC)
		if si.made {
			return fmt.Errorf("workload: restored static instruction at pc %#x repeated", ss.PC)
		}
		si.made = true
		si.class = ss.Class
		si.dest = ss.Dest
		si.src = ss.Src
		si.pattern = branchPattern(ss.Pattern)
		si.target = ss.Target
		si.biasedTaken = ss.BiasedTaken
		si.seqStream = ss.SeqStream
		si.loopCount = ss.LoopCount
		si.lastTaken = ss.LastTaken
	}
	g.recentInt = regRing{}
	for _, r := range st.RecentInt {
		g.recentInt.push(r)
	}
	g.recentFP = regRing{}
	for _, r := range st.RecentFP {
		g.recentFP.push(r)
	}
	g.pc = st.PC
	g.wpPC = st.WpPC
	g.inWrongPath = st.InWP
	g.seqCursor = st.SeqCursor
	g.generated = st.Generated
	g.wrongGen = st.WrongGen
	g.destCtr = st.DestCtr
	g.fpDestCtr = st.FPDestCtr
	return nil
}

// CaptureSourceState implements Snapshotter.
func (g *Generator) CaptureSourceState() (json.RawMessage, error) {
	return json.Marshal(g.CaptureState())
}

// RestoreSourceState implements Snapshotter.
func (g *Generator) RestoreSourceState(raw json.RawMessage) error {
	var st GeneratorState
	if err := json.Unmarshal(raw, &st); err != nil {
		return fmt.Errorf("workload: decoding generator state: %w", err)
	}
	return g.RestoreState(st)
}

// PhasedState is a PhasedGenerator's snapshot form. Phases holds one entry
// per phase; nil marks a phase whose generator was never constructed.
type PhasedState struct {
	Idx       int               `json:"idx"`
	CurCount  uint64            `json:"cur_count"`
	Generated uint64            `json:"generated"`
	Switches  uint64            `json:"switches"`
	Phases    []*GeneratorState `json:"phases"`
}

// CaptureSourceState implements Snapshotter.
func (p *PhasedGenerator) CaptureSourceState() (json.RawMessage, error) {
	st := PhasedState{
		Idx:       p.idx,
		CurCount:  p.curCount,
		Generated: p.generated,
		Switches:  p.switches,
		Phases:    make([]*GeneratorState, len(p.gens)),
	}
	for i, g := range p.gens {
		if g != nil {
			gs := g.CaptureState()
			st.Phases[i] = &gs
		}
	}
	return json.Marshal(st)
}

// RestoreSourceState implements Snapshotter.
func (p *PhasedGenerator) RestoreSourceState(raw json.RawMessage) error {
	var st PhasedState
	if err := json.Unmarshal(raw, &st); err != nil {
		return fmt.Errorf("workload: decoding phased state: %w", err)
	}
	if p.generated != 0 {
		return fmt.Errorf("workload: restore into phased generator that has already produced instructions")
	}
	if len(st.Phases) != len(p.gens) {
		return fmt.Errorf("workload: restored state has %d phases, this source has %d", len(st.Phases), len(p.gens))
	}
	if st.Idx < 0 || st.Idx >= len(p.gens) {
		return fmt.Errorf("workload: restored phase index %d outside [0, %d)", st.Idx, len(p.gens))
	}
	for i, gs := range st.Phases {
		if gs == nil {
			continue
		}
		g := NewGenerator(p.profs[i], p.seed+int64(i)*0x9E3779B9)
		g.UsePool(p.pool)
		if err := g.RestoreState(*gs); err != nil {
			return fmt.Errorf("workload: phase %d: %w", i, err)
		}
		p.gens[i] = g
	}
	p.idx = st.Idx
	p.curCount = st.CurCount
	p.generated = st.Generated
	p.switches = st.Switches
	return nil
}
