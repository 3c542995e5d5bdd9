package pipeline

import (
	"fmt"

	"galsim/internal/bpred"
	"galsim/internal/cache"
	"galsim/internal/clock"
	"galsim/internal/dvfs"
	"galsim/internal/fifo"
	"galsim/internal/iq"
	"galsim/internal/isa"
	"galsim/internal/power"
	"galsim/internal/rename"
	"galsim/internal/rob"
	"galsim/internal/simtime"
	"galsim/internal/snapshot"
	"galsim/internal/workload"
)

// wakeTag is the payload of a cross-domain wakeup FIFO: a completed physical
// register's identity, with enough provenance to discard stale wrong-path
// tags.
type wakeTag struct {
	phys      int
	seq       isa.Seq
	wrongPath bool
	wpid      uint64
}

// inflightOp is an issued instruction awaiting completion in an execution
// domain.
type inflightOp struct {
	in     *isa.Instr
	doneAt simtime.Time
}

// execUnit is the per-execution-domain machinery: issue queue, functional
// units, and in-flight operations.
type execUnit struct {
	dom         DomainID
	queue       *iq.Queue
	fuBusyUntil []simtime.Time
	inflight    []inflightOp
}

// execDomains lists the three execution domains.
var execDomains = []DomainID{DomInt, DomFP, DomMem}

// Core is one simulated machine — any clock-domain topology over the fixed
// pipeline structures — bound to one workload.
type Core struct {
	cfg  Config
	gen  workload.InstrSource
	pred *bpred.Predictor
	mem  *cache.Hierarchy
	mtr  *power.Meter
	rat  *rename.Table
	rob  *rob.ROB

	// pool is the instruction arena (see the isa package comment): records
	// are allocated at fetch and recycled when the last pipeline structure
	// releases them. nil when the source cannot pool or was handed no pool,
	// in which case records come from the heap and are never recycled.
	pool *isa.Pool

	// domClocks holds one physical clock per topology domain; clocks aliases
	// them per structure (structures sharing a domain share the pointer — in
	// the fully synchronous machine all five entries alias one clock).
	domClocks []*clock.Domain
	clocks    [NumDomains]*clock.Domain

	// Links. decodeToRename is always a same-domain pipe latch; the rest are
	// latches in base and mixed-clock FIFOs in GALS.
	fetchToDecode  *fifo.Link[*isa.Instr]
	decodeToRename *fifo.Link[*isa.Instr]
	dispatch       [NumDomains]*fifo.Link[*isa.Instr] // int/fp/mem slots used
	complete       [NumDomains]*fifo.Link[*isa.Instr] // int/fp/mem slots used
	wakeIntToMem   *fifo.Link[wakeTag]
	wakeFPToMem    *fifo.Link[wakeTag]
	wakeMemToInt   *fifo.Link[wakeTag]
	wakeMemToFP    *fifo.Link[wakeTag]

	// readyAt[d][p] is the local time at or after which execution domain d
	// may issue a consumer of physical register p.
	readyAt [NumDomains][]simtime.Time

	exec [NumDomains]*execUnit // int/fp/mem slots used

	// Precomputed link groups, so the per-cycle stages never build slices:
	// wakeIn[d] lists the wakeup links domain d drains; wakeOut[d] lists the
	// links a result computed in d must traverse (for DomMem the destination
	// register file picks between wakeOutMemFP and wakeOut[DomMem]).
	wakeIn    [NumDomains][]*fifo.Link[wakeTag]
	wakeOut   [NumDomains][]*fifo.Link[wakeTag]
	wakeOutFP []*fifo.Link[wakeTag] // DomMem results destined for the FP file

	// Per-cycle scratch, reused so the steady-state hot path is
	// allocation-free.
	selScratch []*isa.Instr // issue selection output
	readyNow   simtime.Time // observation instant for the ready closures
	readyFn    [NumDomains]func(int) bool
	memSel     struct { // selectMemOps walk state
		pendingStores int
		pendingAddrs  []uint64
	}
	memTake func(*isa.Instr) bool // prebuilt Scan callback for selectMemOps

	// Prebuilt squash callbacks (closures allocated once, not per recovery).
	doomedFn       func(*isa.Instr) bool // pure doomed predicate
	doomedFlush    func(*isa.Instr) bool // doomed → release + discard
	doomedTagFlush func(wakeTag) bool
	undoRelease    func(*isa.Instr) // ROB squash: rename undo + release

	// Fetch state.
	nextSeq       isa.Seq
	inWrongPath   bool
	currentWPID   uint64
	icacheStallTo simtime.Time
	lastFetchLine uint64
	l1iLineShift  uint
	histSnapshot  uint64 // gshare history at wrong-path entry, restored at redirect

	// Squash state: at most one unresolved misprediction exists at a time.
	// A newer one supersedes it (see postSquash), so time is per domain:
	// the resolve time of the squash domain d is waiting to observe.
	sq struct {
		active   bool
		seq      isa.Seq
		time     [NumDomains]simtime.Time
		observed [NumDomains]bool
	}
	resolvedWPID uint64

	// Run control.
	targetCommits uint64
	done          bool
	started       bool
	decodeCycles  uint64
	lastProgress  uint64 // decodeCycles value at the last commit

	commitHook func(*isa.Instr)

	// Clock-edge calendar: one periodic tick per clock domain (the paper's
	// §4.2 event queue, which for a clocked system holds nothing else).
	// tickAt[g] is domain g's next edge and tickPeriod[g] its period;
	// tickFns[g] handles the edge; tickOrder lists the domains in firing
	// order for simultaneous edges. now is the edge being processed, or the
	// last one processed once Run returns.
	now        simtime.Time
	tickAt     []simtime.Time
	tickPeriod []simtime.Duration
	tickFns    []func(simtime.Time)
	tickOrder  []int

	// Snapshot triggers (SnapshotAt; see snapshot.go).
	snapTargets []uint64
	snapFn      func(uint64, func(*snapshot.Encoder))
	snapRecs    map[*isa.Instr]int // a capture's record indices, reused

	// Dynamic DVFS controller state and the scalable-domain scan list.
	dvfs     dvfsState
	scalable []int

	// Interval sampler state (Config.SampleInterval > 0 only).
	smp samplerState

	// Timeline tracer, nil unless AttachTimeline was called. Every hot-path
	// tap is guarded by one `c.tl != nil` branch.
	tl *timelineState

	stats Stats
}

// OnCommit registers a hook invoked for every committed instruction, after
// its timestamps are final. Used for tracing and invariant checking; must
// be set before Run.
//
// The *Instr is recycled into the core's arena after the hook returns: the
// hook may read every field but must not retain the pointer past the call;
// a hook that needs a record later copies the fields it needs.
func (c *Core) OnCommit(fn func(*isa.Instr)) {
	if c.started {
		panic("pipeline: OnCommit after Run")
	}
	c.commitHook = fn
}

// Release hands the core's large tables — the instruction arena's chunks,
// the cache tag stores, the predictor tables and the source's program pages
// — on to later cores, which reset them in place instead of allocating.
// Neither the core, nor its source, nor any *Instr it produced may be used
// afterwards. A core that is never released leaves its tables to the
// garbage collector; results are identical either way.
func (c *Core) Release() {
	if c.pool != nil {
		c.pool.Recycle()
	}
	c.pred.Release()
	c.mem.Release()
	if r, ok := c.gen.(workload.Releaser); ok {
		r.Release()
	}
}

// retainInstr adds an arena reference: the record is entering a second
// pipeline structure (the ROB, alongside its current queue or link).
func (c *Core) retainInstr(in *isa.Instr) {
	if c.pool != nil {
		c.pool.Retain(in)
	}
}

// releaseInstr drops one arena reference; the last holder's release recycles
// the record.
func (c *Core) releaseInstr(in *isa.Instr) {
	if c.pool != nil {
		c.pool.Release(in)
	}
}

// NewCoreWithSource builds a machine fed by an arbitrary instruction source
// — the synthetic generator, a phased multi-profile generator, or a trace
// replayer — identified by name in the run's statistics. It does not
// check cfg: the campaign layer builds it from a run spec it has checked.
func NewCoreWithSource(cfg Config, name string, src workload.InstrSource) *Core {
	if src == nil {
		panic("pipeline: nil instruction source")
	}
	pcfg := bpred.DefaultConfig()
	pcfg.Kind = cfg.Predictor
	c := &Core{
		cfg:  cfg,
		gen:  src,
		pred: bpred.New(pcfg),
		mem:  cache.NewHierarchy(memSystem),
		mtr:  new(power.Meter),
		rat:  rename.New(physInt, physFP),
		rob:  rob.New(cfg.ROBSize),
	}
	c.stats.Kind = c.cfg.Topology.kind()
	c.stats.Benchmark = name
	c.lastFetchLine = ^uint64(0)
	for l := memSystem.L1I.LineBytes; l > 1; l >>= 1 {
		c.l1iLineShift++
	}

	// Install the instruction arena when the source can allocate from it;
	// sources outside this package's contract (UsePool returning false
	// covers wrappers around them) keep heap allocation and the core then
	// must not recycle — it cannot know where records came from.
	if pu, ok := src.(workload.PoolUser); ok {
		pool := isa.NewPool()
		if pu.UsePool(pool) {
			c.pool = pool
		}
	}

	c.buildClocks()
	c.buildLinks()
	c.dvfs.target = make([]float64, len(c.domClocks))
	c.dvfs.pending = make([]bool, len(c.domClocks))
	c.dvfs.frozen = make([]int, len(c.domClocks))
	for g, dom := range c.cfg.Topology.Domains {
		if dom.Scalable {
			c.scalable = append(c.scalable, g)
		}
	}

	for d := range c.readyAt {
		c.readyAt[d] = make([]simtime.Time, c.rat.NumPhys())
	}
	c.exec[DomInt] = &execUnit{dom: DomInt, queue: iq.New("int-iq", cfg.IntIQSize),
		fuBusyUntil: make([]simtime.Time, intIssueWidth)}
	c.exec[DomFP] = &execUnit{dom: DomFP, queue: iq.New("fp-iq", cfg.FPIQSize),
		fuBusyUntil: make([]simtime.Time, fpIssueWidth)}
	c.exec[DomMem] = &execUnit{dom: DomMem, queue: iq.New("mem-iq", cfg.MemIQSize),
		fuBusyUntil: make([]simtime.Time, memIssueWidth)}

	c.buildScratch()
	return c
}

// buildScratch precomputes the per-cycle link groups, ready closures and
// squash callbacks, and sizes the reusable selection buffers — everything
// the steady-state loop would otherwise allocate.
func (c *Core) buildScratch() {
	c.wakeIn[DomInt] = []*fifo.Link[wakeTag]{c.wakeMemToInt}
	c.wakeIn[DomFP] = []*fifo.Link[wakeTag]{c.wakeMemToFP}
	c.wakeIn[DomMem] = []*fifo.Link[wakeTag]{c.wakeIntToMem, c.wakeFPToMem}
	c.wakeOut[DomInt] = []*fifo.Link[wakeTag]{c.wakeIntToMem}
	c.wakeOut[DomFP] = []*fifo.Link[wakeTag]{c.wakeFPToMem}
	c.wakeOut[DomMem] = []*fifo.Link[wakeTag]{c.wakeMemToInt}
	c.wakeOutFP = []*fifo.Link[wakeTag]{c.wakeMemToFP}

	c.selScratch = make([]*isa.Instr, 0, max(intIssueWidth, fpIssueWidth, memIssueWidth))
	c.memSel.pendingAddrs = make([]uint64, 0, c.cfg.MemIQSize)

	for _, d := range execDomains {
		d := d
		c.readyFn[d] = func(p int) bool { return p < 0 || c.readyAt[d][p] <= c.readyNow }
	}
	memReady := c.readyFn[DomMem]
	c.memTake = func(in *isa.Instr) bool {
		opsReady := memReady(in.PhysSrc[0]) && memReady(in.PhysSrc[1])
		if in.Class == isa.ClassStore {
			if opsReady {
				return true // store issues; its address is now known
			}
			c.memSel.pendingStores++
			c.memSel.pendingAddrs = append(c.memSel.pendingAddrs, in.Addr&^7)
			return false
		}
		if !opsReady {
			return false
		}
		switch c.cfg.MemDisambig {
		case DisambigConservative:
			if c.memSel.pendingStores > 0 {
				c.stats.LoadsBlockedByStores++
				return false
			}
		case DisambigAddrMatch:
			for _, a := range c.memSel.pendingAddrs {
				if a == in.Addr&^7 {
					c.stats.LoadsBlockedByStores++
					return false
				}
			}
		}
		return true
	}

	c.doomedFn = c.doomed
	c.doomedFlush = func(in *isa.Instr) bool {
		if c.doomed(in) {
			c.releaseInstr(in)
			return true
		}
		return false
	}
	c.doomedTagFlush = c.doomedTag
	c.undoRelease = func(in *isa.Instr) {
		c.rat.Undo(in)
		c.releaseInstr(in)
	}
}

// buildClocks creates one physical clock per topology domain, applies the
// (per-domain-equal) slowdowns and their voltages, draws the starting
// phases, aliases the per-structure clock table onto the domain clocks, and
// schedules each domain's first edge at its phase.
func (c *Core) buildClocks() {
	vnom := dvfs.Default.VNominal
	topo := &c.cfg.Topology
	c.domClocks = make([]*clock.Domain, len(topo.Domains))
	periods := make([]simtime.Duration, len(topo.Domains))
	for g, dom := range topo.Domains {
		d := clock.NewDomain(dom.Name, topo.nominalPeriod(g), 0, vnom)
		// Every structure of the domain carries the same slowdown: the
		// campaign layer sets slowdowns per clock domain, never per
		// structure. Read it off the first one.
		if s := c.cfg.Slowdowns[topo.structuresOf(g)[0]]; s != 1 {
			d.SetSlowdown(s)
			if c.cfg.AutoVoltage {
				d.SetVoltage(c.voltageFor(g, s))
			}
		}
		periods[g] = d.Period()
		c.domClocks[g] = d
	}
	phases := topo.randomPhases(c.cfg, periods)
	c.tickAt = make([]simtime.Time, len(c.domClocks))
	c.tickPeriod = make([]simtime.Duration, len(c.domClocks))
	for g, d := range c.domClocks {
		d.SetPhase(phases[g])
		c.tickAt[g], c.tickPeriod[g] = d.Phase(), d.Period()
	}
	for d := DomainID(0); d < NumDomains; d++ {
		c.clocks[d] = c.domClocks[topo.Of[d]]
	}
}

// voltageFor returns clock domain g's supply voltage at the given slowdown:
// interpolated from the domain's voltage table when one is configured,
// otherwise solved from the Equation 1 delay model.
func (c *Core) voltageFor(g int, slow float64) float64 {
	if tbl := c.cfg.Topology.Domains[g].VoltTable; len(tbl) > 0 {
		return voltFromTable(tbl, slow)
	}
	return dvfs.Default.VoltageForSlowdown(slow)
}

// voltFromTable interpolates a voltage table (sorted by ascending slowdown)
// piecewise-linearly, clamping outside the table's slowdown range.
func voltFromTable(tbl []VoltPoint, slow float64) float64 {
	if slow <= tbl[0].Slowdown {
		return tbl[0].Voltage
	}
	for i := 1; i < len(tbl); i++ {
		if slow <= tbl[i].Slowdown {
			lo, hi := tbl[i-1], tbl[i]
			f := (slow - lo.Slowdown) / (hi.Slowdown - lo.Slowdown)
			return lo.Voltage + f*(hi.Voltage-lo.Voltage)
		}
	}
	return tbl[len(tbl)-1].Voltage
}

// buildLinks creates the communication fabric. A link between structures on
// one clock is a synchronous pipe latch; a link crossing clock domains is a
// mixed-clock FIFO (or a stretchable-clock handshake). decodeToRename never
// crosses a boundary, so it is a latch under every topology.
func (c *Core) buildLinks() {
	edges := func(class LinkClass) int {
		if e := c.cfg.Topology.Links[class].SyncEdges; e > 0 {
			return e
		}
		return c.cfg.FIFOSyncEdges
	}
	capOf := func(class LinkClass, def int) int {
		if v := c.cfg.Topology.Links[class].Capacity; v > 0 {
			return v
		}
		return def
	}
	instrLink := func(name string, from, to DomainID, class LinkClass) *fifo.Link[*isa.Instr] {
		switch {
		case !c.cfg.Topology.Cross(from, to):
			return fifo.NewSyncLatch[*isa.Instr](name, c.clocks[from], capOf(class, latchCapacity))
		case c.cfg.LinkStyle == LinkStretch:
			return fifo.NewStretchLink[*isa.Instr](name, c.clocks[from], c.clocks[to],
				stretchHandshake, stretchWidth)
		default:
			return fifo.NewMixedClockFIFO[*isa.Instr](name, c.clocks[from], c.clocks[to],
				capOf(class, c.cfg.FIFOCapacity), edges(class))
		}
	}
	wakeLink := func(name string, from, to DomainID) *fifo.Link[wakeTag] {
		switch {
		case !c.cfg.Topology.Cross(from, to):
			return fifo.NewSyncLatch[wakeTag](name, c.clocks[from], capOf(LinkClassWakeup, 2*c.cfg.FIFOCapacity))
		case c.cfg.LinkStyle == LinkStretch:
			return fifo.NewStretchLink[wakeTag](name, c.clocks[from], c.clocks[to],
				stretchHandshake, stretchWidth)
		default:
			return fifo.NewMixedClockFIFO[wakeTag](name, c.clocks[from], c.clocks[to],
				capOf(LinkClassWakeup, 2*c.cfg.FIFOCapacity), edges(LinkClassWakeup))
		}
	}

	c.fetchToDecode = instrLink("fetch->decode", DomFetch, DomDecode, LinkClassFetch)
	c.decodeToRename = fifo.NewSyncLatch[*isa.Instr]("decode->rename", c.clocks[DomDecode], latchCapacity)
	for _, d := range execDomains {
		c.dispatch[d] = instrLink(fmt.Sprintf("dispatch->%v", d), DomDecode, d, LinkClassDispatch)
		c.complete[d] = instrLink(fmt.Sprintf("complete<-%v", d), d, DomDecode, LinkClassComplete)
	}
	c.wakeIntToMem = wakeLink("wake int->mem", DomInt, DomMem)
	c.wakeFPToMem = wakeLink("wake fp->mem", DomFP, DomMem)
	c.wakeMemToInt = wakeLink("wake mem->int", DomMem, DomInt)
	c.wakeMemToFP = wakeLink("wake mem->fp", DomMem, DomFP)
}

// doomed reports whether an instruction belongs to an already-resolved
// wrong-path excursion and must be discarded wherever it is found.
func (c *Core) doomed(in *isa.Instr) bool {
	return in.WrongPath && in.WPID <= c.resolvedWPID
}

func (c *Core) doomedTag(t wakeTag) bool {
	return t.wrongPath && t.wpid <= c.resolvedWPID
}

// execDomainOf maps an instruction class to its execution domain.
func execDomainOf(cl isa.Class) DomainID {
	switch {
	case cl.IsFP():
		return DomFP
	case cl.IsMem():
		return DomMem
	default:
		return DomInt
	}
}

// iqBlock maps an execution domain to its issue-window power block.
func iqBlock(d DomainID) power.Block {
	switch d {
	case DomInt:
		return power.BlockIntIQ
	case DomFP:
		return power.BlockFPIQ
	case DomMem:
		return power.BlockMemIQ
	default:
		panic(fmt.Sprintf("pipeline: no issue queue in domain %v", d))
	}
}

// gridBlock maps a domain to its local clock grid block.
func gridBlock(d DomainID) power.Block {
	switch d {
	case DomFetch:
		return power.BlockFetchClock
	case DomDecode:
		return power.BlockDecodeClock
	case DomInt:
		return power.BlockIntClock
	case DomFP:
		return power.BlockFPClock
	case DomMem:
		return power.BlockMemClock
	default:
		panic(fmt.Sprintf("pipeline: no grid for domain %v", d))
	}
}

// activityBlocksTab lists the non-clock blocks owned by each domain,
// precomputed at package level so ending a cycle allocates nothing.
var activityBlocksTab = [NumDomains][]power.Block{
	DomFetch:  {power.BlockICache, power.BlockBPred},
	DomDecode: {power.BlockRename, power.BlockRegfile},
	DomInt:    {power.BlockIntIQ, power.BlockALUs},
	DomFP:     {power.BlockFPIQ, power.BlockFPALUs},
	DomMem:    {power.BlockMemIQ, power.BlockDCache, power.BlockL2},
}

// activityBlocks lists the non-clock blocks owned by a domain. The returned
// slice is shared; callers must not mutate it.
func activityBlocks(d DomainID) []power.Block {
	if int(d) >= len(activityBlocksTab) {
		panic(fmt.Sprintf("pipeline: unknown domain %v", d))
	}
	return activityBlocksTab[d]
}

// postSquash is called by the integer domain when a mispredicted
// correct-path branch resolves: it broadcasts the squash and flushes the
// resolving domain's own structures immediately.
//
// A squash still in flight is superseded: a slow domain may not yet have
// observed it when fetch, already redirected, delivers a newer correct-path
// misprediction. The newer squash dooms a superset of the older one (doomed
// compares WPIDs with <=), so domains that already observed the older squash
// wait for the newer one from now, while the rest keep the older squash's
// earlier deadline — a slow domain is never starved by a stream of
// squashes — and act on the newer one when they observe.
func (c *Core) postSquash(br *isa.Instr, now simtime.Time) {
	if c.sq.active && c.tl != nil {
		c.tl.squashEnd(now)
	}
	for d := range c.sq.observed {
		if !c.sq.active || c.sq.observed[d] {
			c.sq.time[d] = now
			c.sq.observed[d] = false
		}
	}
	c.sq.active = true
	c.sq.seq = br.Seq
	c.resolvedWPID = br.WPID
	c.stats.Recoveries++
	if c.tl != nil {
		c.tl.squashBegin(now, int64(br.Seq))
	}
	c.doObserve(DomInt, now)
}

// observeSquash lets structure d act on a pending squash once its
// synchronized copy of the signal has arrived: the resolving structure sees
// it immediately, structures sharing the resolver's clock one edge later (a
// synchronous broadcast), and structures in other clock domains after
// FIFOSyncEdges edges of their own clock (the squash bus crosses a flag
// synchronizer, like any other cross-domain signal).
func (c *Core) observeSquash(d DomainID, now simtime.Time) {
	if !c.sq.active || c.sq.observed[d] {
		return
	}
	edges := int64(1)
	if c.cfg.Topology.Cross(d, DomInt) {
		edges = int64(c.cfg.FIFOSyncEdges)
	}
	if now < c.clocks[d].NthEdgeAfter(c.sq.time[d], edges) {
		return
	}
	c.doObserve(d, now)
}

// doObserve performs domain d's squash actions.
func (c *Core) doObserve(d DomainID, now simtime.Time) {
	c.sq.observed[d] = true
	if c.tl != nil {
		c.tl.observe(d, now)
	}
	switch d {
	case DomFetch:
		// Redirect: abandon the wrong path and resume the correct one. The
		// speculative gshare history bits inserted by wrong-path lookups are
		// rolled back to the checkpoint taken at the misprediction.
		if c.gen.InWrongPath() {
			c.gen.EndWrongPath()
		}
		c.pred.RestoreHistory(c.histSnapshot)
		c.inWrongPath = false
		c.lastFetchLine = ^uint64(0)
		c.icacheStallTo = 0
	case DomDecode:
		c.fetchToDecode.FlushMatching(c.doomedFlush)
		c.decodeToRename.FlushMatching(c.doomedFlush)
		for _, ed := range execDomains {
			c.complete[ed].FlushMatching(c.doomedFlush)
		}
		n := c.rob.SquashTail(c.doomedFn, c.undoRelease)
		c.stats.SquashedROB += uint64(n)
	case DomInt:
		c.exec[DomInt].queue.FlushWrongPath(c.doomedFlush)
		c.dispatch[DomInt].FlushMatching(c.doomedFlush)
		c.wakeMemToInt.FlushMatching(c.doomedTagFlush)
	case DomFP:
		c.exec[DomFP].queue.FlushWrongPath(c.doomedFlush)
		c.dispatch[DomFP].FlushMatching(c.doomedFlush)
		c.wakeMemToFP.FlushMatching(c.doomedTagFlush)
	case DomMem:
		c.exec[DomMem].queue.FlushWrongPath(c.doomedFlush)
		c.dispatch[DomMem].FlushMatching(c.doomedFlush)
		c.wakeIntToMem.FlushMatching(c.doomedTagFlush)
		c.wakeFPToMem.FlushMatching(c.doomedTagFlush)
	}
	for i := range c.sq.observed {
		if !c.sq.observed[i] {
			return
		}
	}
	c.sq.active = false
	if c.tl != nil {
		c.tl.squashEnd(now)
	}
}

// resetReady marks a freshly allocated physical register not-ready in every
// execution domain.
func (c *Core) resetReady(phys int) {
	for _, d := range execDomains {
		c.readyAt[d][phys] = simtime.Never
	}
}

// endCycle closes one cycle of domain d: activity blocks plus the domain's
// local clock grid, at the domain's current voltage (read live, since
// dynamic DVFS may change it mid-run).
func (c *Core) endCycle(d DomainID) {
	scale := c.clocks[d].EnergyScale()
	c.mtr.EndCycle(activityBlocks(d), scale)
	c.mtr.EndClockCycle(gridBlock(d), scale)
	c.stats.Cycles[d]++
}

// domainTick builds clock domain g's edge handler: every stage of every
// structure the domain owns, in reverse pipeline order. For the paper's two
// machines this reproduces the classic handlers exactly — the five
// single-structure GALS ticks, and the one all-structure synchronous tick
// that also charges the global clock grid.
func (c *Core) domainTick(g int) func(simtime.Time) {
	owned := c.cfg.Topology.structuresOf(g)
	hasFetch, hasDecode := false, false
	var execs []DomainID
	for _, d := range owned {
		switch d {
		case DomFetch:
			hasFetch = true
		case DomDecode:
			hasDecode = true
		default:
			execs = append(execs, d)
		}
	}
	globalGrid := c.cfg.Topology.GlobalGrid
	dc := c.domClocks[g]
	return func(now simtime.Time) {
		if hasDecode && c.snapFn != nil {
			c.maybeSnapshot(g, now)
		}
		c.maybeRetune(g, now)
		for _, d := range owned {
			c.observeSquash(d, now)
		}
		if hasDecode {
			c.watchdogAndSamples()
			if c.cfg.SampleInterval != 0 {
				c.maybeSample()
			}
			c.dvfsController()
			c.stageCommit(now)
			c.stageDrainCompletions(now)
		}
		for _, d := range execs {
			c.stageComplete(d, now)
			c.stageDrainWakeups(d, now)
			c.stageDrainDispatch(d, now)
			c.stageIssue(d, now)
		}
		if hasDecode {
			c.stageRenameDispatch(now)
			c.stageDecode(now)
		}
		if hasFetch {
			c.stageFetch(now)
		}
		if c.tl != nil {
			c.tl.observeOccupancy(c, hasFetch, hasDecode, execs, now)
		}
		for _, d := range owned {
			c.endCycle(d)
		}
		if globalGrid {
			c.mtr.EndClockCycle(power.BlockGlobalClock, dc.EnergyScale())
		}
	}
}

// Run simulates until n instructions have committed and returns the
// statistics. Run may be called once per Core.
func (c *Core) Run(n uint64) Stats {
	if c.started {
		panic("pipeline: Run called twice")
	}
	if n == 0 {
		panic("pipeline: Run of zero instructions")
	}
	if n <= c.stats.Committed {
		panic(fmt.Sprintf("pipeline: Run target %d does not exceed the restored snapshot's %d committed instructions",
			n, c.stats.Committed))
	}
	c.started = true
	c.targetCommits = n

	for _, d := range c.domClocks {
		if !d.Started() {
			d.MarkStarted()
		}
	}

	c.tickOrder = c.cfg.Topology.firingOrder()
	c.tickFns = make([]func(simtime.Time), len(c.domClocks))
	for g := range c.domClocks {
		c.tickFns[g] = c.domainTick(g)
	}

	// Fire the earliest edge until the commit stage reaches the target. The
	// scan runs in firing order with a strict <, so of simultaneous edges the
	// commit-side domain fires first. A slot advances by its period before
	// its handler runs, so a retune inside the handler may rewrite it.
	for !c.done {
		g := c.tickOrder[0]
		for _, h := range c.tickOrder[1:] {
			if c.tickAt[h] < c.tickAt[g] {
				g = h
			}
		}
		c.now = c.tickAt[g]
		c.tickAt[g] += c.tickPeriod[g]
		c.tickFns[g](c.now)
	}
	c.finalize()
	return c.stats
}

// watchdogAndSamples advances the decode-cycle counter, samples occupancy
// statistics, and aborts on commit starvation (a structural deadlock would
// otherwise spin forever).
func (c *Core) watchdogAndSamples() {
	c.decodeCycles++
	c.rat.Sample()
	c.rob.Tick()
	if c.tl != nil {
		c.tl.checkStallTrigger(c)
	}
	if stalled := c.decodeCycles - c.lastProgress; stalled > maxStallCycles {
		if limit := c.stallLimit(); stalled > limit {
			panic(fmt.Sprintf(
				"pipeline: no commit in %d decode cycles (limit %d) (%s/%s): committed=%d rob=%d/%d head=%v iqs=%d/%d/%d sqActive=%v",
				stalled, limit, c.stats.Kind, c.stats.Benchmark,
				c.stats.Committed, c.rob.Len(), c.rob.Cap(), c.rob.Head(),
				c.exec[DomInt].queue.Len(), c.exec[DomFP].queue.Len(), c.exec[DomMem].queue.Len(),
				c.sq.active))
		}
	}
}

// stallLimit is the watchdog's limit in decode cycles: maxStallCycles
// cycles of the slowest clock domain, so a validly slowed domain — whose
// every operation spans many decode cycles — is not mistaken for a
// deadlock.
func (c *Core) stallLimit() uint64 {
	dec := c.clocks[DomDecode].Period()
	slowest := dec
	for _, d := range c.domClocks {
		slowest = max(slowest, d.Period())
	}
	return maxStallCycles * uint64((slowest+dec-1)/dec)
}
