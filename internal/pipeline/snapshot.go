package pipeline

// Full-machine snapshot capture and restore.
//
// A snapshot is taken at the instant a decode-domain clock edge begins,
// before any of that edge's stages execute — a decode-cycle boundary. The
// machine's complete dynamic state is then: every architectural structure
// (ROB, issue queues, rename table, predictor, caches, power meter), every
// link's contents, the in-flight instruction records, the clock and DVFS
// controller state, the workload source's position, and the clock-edge
// calendar (each domain's next edge time and period). Restoring writes the
// captured calendar back; the firing decode domain's slot is recorded at the
// capture instant itself (Run advances a slot by its period before invoking
// the edge handler, so at capture time that slot already points one period
// ahead — the restored run must re-execute that edge in full).
//
// The restored run is bit-identical to the straight-line run: same stage
// order, same edge schedule, same RNG draws, same statistics.

import (
	"encoding/json"
	"fmt"
	"sort"

	"galsim/internal/bpred"
	"galsim/internal/cache"
	"galsim/internal/clock"
	"galsim/internal/fifo"
	"galsim/internal/iq"
	"galsim/internal/isa"
	"galsim/internal/power"
	"galsim/internal/rename"
	"galsim/internal/rob"
	"galsim/internal/simtime"
	"galsim/internal/workload"
)

// WakeTagState is a cross-domain wakeup tag in snapshot form.
type WakeTagState struct {
	Phys      int     `json:"phys"`
	Seq       isa.Seq `json:"seq"`
	WrongPath bool    `json:"wp,omitempty"`
	WPID      uint64  `json:"wpid,omitempty"`
}

// InflightState is one issued-but-incomplete operation in snapshot form.
type InflightState struct {
	Rec    int          `json:"rec"`
	DoneAt simtime.Time `json:"done_at"`
}

// ExecUnitState is one execution domain's machinery in snapshot form.
type ExecUnitState struct {
	Queue       iq.State        `json:"queue"`
	FUBusyUntil []simtime.Time  `json:"fu_busy"`
	Inflight    []InflightState `json:"inflight,omitempty"`
}

// FetchState is the front end's snapshot form.
type FetchState struct {
	NextSeq       isa.Seq      `json:"next_seq"`
	InWrongPath   bool         `json:"in_wp,omitempty"`
	CurrentWPID   uint64       `json:"wpid"`
	ICacheStallTo simtime.Time `json:"icache_stall_to"`
	LastFetchLine uint64       `json:"last_fetch_line"`
	HistSnapshot  uint64       `json:"hist_snapshot"`
}

// SquashState is the (at most one) unresolved misprediction's snapshot form.
// Time is the newest squash's resolve time; Since, present only after a
// squash superseded another still in flight, holds each domain's own.
type SquashState struct {
	Active   bool             `json:"active,omitempty"`
	Seq      isa.Seq          `json:"seq,omitempty"`
	Time     simtime.Time     `json:"time,omitempty"`
	Since    []simtime.Time   `json:"since,omitempty"`
	Observed [NumDomains]bool `json:"observed"`
}

// DVFSControllerState is the dynamic DVFS controller's snapshot form.
type DVFSControllerState struct {
	LastCheck     uint64             `json:"last_check"`
	LastOccSum    [NumDomains]uint64 `json:"last_occ_sum"`
	LastTicks     [NumDomains]uint64 `json:"last_ticks"`
	Target        []float64          `json:"target"`
	Pending       []bool             `json:"pending"`
	LastCommitted uint64             `json:"last_committed"`
	ProbeDomain   int                `json:"probe_domain"`
	ProbeActive   bool               `json:"probe_active,omitempty"`
	ProbeIPC      float64            `json:"probe_ipc"`
	Frozen        []int              `json:"frozen"`
}

// SamplerState is the interval sampler's snapshot form.
type SamplerState struct {
	LastCycle     uint64             `json:"last_cycle"`
	LastFetched   uint64             `json:"last_fetched"`
	LastCommitted uint64             `json:"last_committed"`
	LastDomCycles [NumDomains]uint64 `json:"last_dom_cycles"`
	LastIssues    [NumDomains]uint64 `json:"last_issues"`
	LastOccSum    [NumDomains]uint64 `json:"last_occ_sum"`
	LastOccTicks  [NumDomains]uint64 `json:"last_occ_ticks"`
	LastStalls    StallSample        `json:"last_stalls"`
}

// CoreState is the complete mutable state of a Core at a decode-cycle
// boundary. It marshals to JSON; the snapshot envelope (internal/snapshot)
// adds versioning and integrity on top.
type CoreState struct {
	// Records holds every in-flight instruction once; structures reference
	// records by index.
	Records []isa.Instr     `json:"records,omitempty"`
	Source  json.RawMessage `json:"source"`

	Clocks     []clock.State      `json:"clocks"`
	TickWhen   []simtime.Time     `json:"tick_when"`
	TickPeriod []simtime.Duration `json:"tick_period"`

	Pred  bpred.State          `json:"pred"`
	Mem   cache.HierarchyState `json:"mem"`
	Meter power.State          `json:"meter"`
	Rat   rename.State         `json:"rat"`
	ROB   rob.State            `json:"rob"`

	FetchToDecode  fifo.LinkState[int]              `json:"fetch_to_decode"`
	DecodeToRename fifo.LinkState[int]              `json:"decode_to_rename"`
	Dispatch       [NumDomains]*fifo.LinkState[int] `json:"dispatch"`
	Complete       [NumDomains]*fifo.LinkState[int] `json:"complete"`
	WakeIntToMem   fifo.LinkState[WakeTagState]     `json:"wake_int_to_mem"`
	WakeFPToMem    fifo.LinkState[WakeTagState]     `json:"wake_fp_to_mem"`
	WakeMemToInt   fifo.LinkState[WakeTagState]     `json:"wake_mem_to_int"`
	WakeMemToFP    fifo.LinkState[WakeTagState]     `json:"wake_mem_to_fp"`
	ReadyAt        [NumDomains][]simtime.Time       `json:"ready_at"`
	Exec           [NumDomains]*ExecUnitState       `json:"exec"`

	Fetch        FetchState          `json:"fetch"`
	Squash       SquashState         `json:"squash"`
	ResolvedWPID uint64              `json:"resolved_wpid"`
	DecodeCycles uint64              `json:"decode_cycles"`
	LastProgress uint64              `json:"last_progress"`
	DVFS         DVFSControllerState `json:"dvfs"`
	Sampler      SamplerState        `json:"sampler"`

	Stats Stats `json:"stats"`
}

// SnapshotAt registers commit-count triggers: when the number of committed
// instructions first reaches (or passes) each target at the start of a
// decode-domain clock edge, fn is invoked with the machine's captured state.
// Targets must be strictly ascending and every target must lie below the
// Run's instruction count, or the later triggers never fire (the run stops
// first). Capture is read-only — a run with triggers produces statistics
// identical to one without. Must be called before Run.
func (c *Core) SnapshotAt(targets []uint64, fn func(commits uint64, st *CoreState)) error {
	if c.started {
		return fmt.Errorf("pipeline: SnapshotAt after Run")
	}
	if fn == nil {
		return fmt.Errorf("pipeline: SnapshotAt with nil callback")
	}
	if len(targets) == 0 {
		return fmt.Errorf("pipeline: SnapshotAt with no targets")
	}
	if !sort.SliceIsSorted(targets, func(i, j int) bool { return targets[i] < targets[j] }) {
		return fmt.Errorf("pipeline: SnapshotAt targets must be ascending")
	}
	if _, ok := c.gen.(workload.Snapshotter); !ok {
		return fmt.Errorf("pipeline: instruction source %T cannot be snapshotted", c.gen)
	}
	c.snapTargets = append([]uint64(nil), targets...)
	c.snapFn = fn
	return nil
}

// maybeSnapshot fires pending snapshot triggers at the start of clock group
// g's edge (the group owning the decode structure). All targets satisfied by
// the current commit count collapse into one capture.
func (c *Core) maybeSnapshot(g int, now simtime.Time) {
	if len(c.snapTargets) == 0 || c.stats.Committed < c.snapTargets[0] {
		return
	}
	for len(c.snapTargets) > 0 && c.stats.Committed >= c.snapTargets[0] {
		c.snapTargets = c.snapTargets[1:]
	}
	st, err := c.captureState(g, now)
	if err != nil {
		panic(fmt.Sprintf("pipeline: snapshot capture at %d commits: %v", c.stats.Committed, err))
	}
	c.snapFn(c.stats.Committed, st)
}

// captureState serializes the machine. firing is the clock domain whose edge
// is currently being processed; its calendar slot already advanced one
// period, so its captured edge time is now itself.
func (c *Core) captureState(firing int, now simtime.Time) (*CoreState, error) {
	snapSrc, ok := c.gen.(workload.Snapshotter)
	if !ok {
		return nil, fmt.Errorf("instruction source %T cannot be snapshotted", c.gen)
	}
	srcState, err := snapSrc.CaptureSourceState()
	if err != nil {
		return nil, fmt.Errorf("capturing source: %w", err)
	}

	st := &CoreState{Source: srcState}

	// Record table: every in-flight *isa.Instr appears once; holders refer
	// to records by index.
	idx := make(map[*isa.Instr]int)
	index := func(in *isa.Instr) int {
		if i, ok := idx[in]; ok {
			return i
		}
		i := len(st.Records)
		idx[in] = i
		st.Records = append(st.Records, *in)
		return i
	}
	instrConv := func(in *isa.Instr) int { return index(in) }
	tagConv := func(t wakeTag) WakeTagState {
		return WakeTagState{Phys: t.phys, Seq: t.seq, WrongPath: t.wrongPath, WPID: t.wpid}
	}

	st.ROB = c.rob.CaptureState(index)
	st.FetchToDecode = fifo.CaptureLink(c.fetchToDecode, instrConv)
	st.DecodeToRename = fifo.CaptureLink(c.decodeToRename, instrConv)
	for _, d := range execDomains {
		ds := fifo.CaptureLink(c.dispatch[d], instrConv)
		st.Dispatch[d] = &ds
		cs := fifo.CaptureLink(c.complete[d], instrConv)
		st.Complete[d] = &cs
		u := c.exec[d]
		es := &ExecUnitState{
			Queue:       u.queue.CaptureState(index),
			FUBusyUntil: append([]simtime.Time(nil), u.fuBusyUntil...),
		}
		for _, op := range u.inflight {
			es.Inflight = append(es.Inflight, InflightState{Rec: index(op.in), DoneAt: op.doneAt})
		}
		st.Exec[d] = es
	}
	st.WakeIntToMem = fifo.CaptureLink(c.wakeIntToMem, tagConv)
	st.WakeFPToMem = fifo.CaptureLink(c.wakeFPToMem, tagConv)
	st.WakeMemToInt = fifo.CaptureLink(c.wakeMemToInt, tagConv)
	st.WakeMemToFP = fifo.CaptureLink(c.wakeMemToFP, tagConv)
	for d := range c.readyAt {
		st.ReadyAt[d] = append([]simtime.Time(nil), c.readyAt[d]...)
	}

	st.Clocks = make([]clock.State, len(c.domClocks))
	for g, dc := range c.domClocks {
		st.Clocks[g] = dc.State()
	}
	st.TickWhen = append([]simtime.Time(nil), c.tickAt...)
	st.TickPeriod = append([]simtime.Duration(nil), c.tickPeriod...)
	st.TickWhen[firing] = now

	st.Pred = c.pred.CaptureState()
	st.Mem = c.mem.CaptureState()
	st.Meter = c.mtr.CaptureState()
	st.Rat = c.rat.CaptureState()

	st.Fetch = FetchState{
		NextSeq:       c.nextSeq,
		InWrongPath:   c.inWrongPath,
		CurrentWPID:   c.currentWPID,
		ICacheStallTo: c.icacheStallTo,
		LastFetchLine: c.lastFetchLine,
		HistSnapshot:  c.histSnapshot,
	}
	st.Squash = SquashState{Active: c.sq.active, Seq: c.sq.seq, Time: c.sq.time[DomInt], Observed: c.sq.observed}
	for _, t := range c.sq.time {
		if t != st.Squash.Time {
			st.Squash.Since = append([]simtime.Time(nil), c.sq.time[:]...)
			break
		}
	}
	st.ResolvedWPID = c.resolvedWPID
	st.DecodeCycles = c.decodeCycles
	st.LastProgress = c.lastProgress
	st.DVFS = DVFSControllerState{
		LastCheck:     c.dvfs.lastCheck,
		LastOccSum:    c.dvfs.lastOccSum,
		LastTicks:     c.dvfs.lastTicks,
		Target:        append([]float64(nil), c.dvfs.target...),
		Pending:       append([]bool(nil), c.dvfs.pending...),
		LastCommitted: c.dvfs.lastCommitted,
		ProbeDomain:   c.dvfs.probeDomain,
		ProbeActive:   c.dvfs.probeActive,
		ProbeIPC:      c.dvfs.probeIPC,
		Frozen:        append([]int(nil), c.dvfs.frozen...),
	}
	st.Sampler = SamplerState{
		LastCycle:     c.smp.lastCycle,
		LastFetched:   c.smp.lastFetched,
		LastCommitted: c.smp.lastCommitted,
		LastDomCycles: c.smp.lastDomCycles,
		LastIssues:    c.smp.lastIssues,
		LastOccSum:    c.smp.lastOccSum,
		LastOccTicks:  c.smp.lastOccTicks,
		LastStalls:    c.smp.lastStalls,
	}
	st.Stats = c.stats

	return st, nil
}

// RestoreCore builds a machine from a captured state. cfg, name and src must
// reproduce the configuration and workload source the capture came from
// (same spec — the campaign layer enforces this via the snapshot envelope's
// spec key); the restored machine then continues bit-identically to the
// machine that was captured. Run on the restored core takes the TOTAL
// instruction count — it must exceed the snapshot's committed count.
func RestoreCore(cfg Config, name string, src workload.InstrSource, st *CoreState) (*Core, error) {
	c := NewCoreWithSource(cfg, name, src)

	snapSrc, ok := c.gen.(workload.Snapshotter)
	if !ok {
		return nil, fmt.Errorf("pipeline: instruction source %T cannot restore a snapshot", c.gen)
	}
	if err := snapSrc.RestoreSourceState(st.Source); err != nil {
		return nil, fmt.Errorf("pipeline: restoring source: %w", err)
	}

	if len(st.Clocks) != len(c.domClocks) ||
		len(st.TickWhen) != len(c.domClocks) || len(st.TickPeriod) != len(c.domClocks) {
		return nil, fmt.Errorf("pipeline: snapshot has %d clock domains, this topology has %d",
			len(st.Clocks), len(c.domClocks))
	}
	for g, dc := range c.domClocks {
		if err := dc.RestoreState(st.Clocks[g]); err != nil {
			return nil, err
		}
	}

	// Validate record references and count holders, so arena refcounts can
	// be reinstated exactly (1 per holding structure).
	holders := make([]int, len(st.Records))
	ref := func(i int) error {
		if i < 0 || i >= len(st.Records) {
			return fmt.Errorf("pipeline: snapshot references record %d of %d", i, len(st.Records))
		}
		holders[i]++
		return nil
	}
	for _, i := range st.ROB.Entries {
		if err := ref(i); err != nil {
			return nil, err
		}
	}
	for _, ls := range []*fifo.LinkState[int]{&st.FetchToDecode, &st.DecodeToRename,
		st.Dispatch[DomInt], st.Dispatch[DomFP], st.Dispatch[DomMem],
		st.Complete[DomInt], st.Complete[DomFP], st.Complete[DomMem]} {
		if ls == nil {
			return nil, fmt.Errorf("pipeline: snapshot missing a link state")
		}
		for _, e := range ls.Entries {
			if err := ref(e.Item); err != nil {
				return nil, err
			}
		}
	}
	for _, d := range execDomains {
		es := st.Exec[d]
		if es == nil {
			return nil, fmt.Errorf("pipeline: snapshot missing execution domain %v", d)
		}
		for _, i := range es.Queue.Entries {
			if err := ref(i); err != nil {
				return nil, err
			}
		}
		for _, op := range es.Inflight {
			if err := ref(op.Rec); err != nil {
				return nil, err
			}
		}
	}

	recs := make([]*isa.Instr, len(st.Records))
	for i := range st.Records {
		r := &st.Records[i]
		var in *isa.Instr
		if c.pool != nil {
			in = c.pool.Get(r.Seq, r.PC, r.Class)
		} else {
			in = isa.NewInstr(r.Seq, r.PC, r.Class)
		}
		in.RestoreFrom(r)
		recs[i] = in
	}
	for i, n := range holders {
		if n == 0 {
			return nil, fmt.Errorf("pipeline: snapshot record %d held by no structure", i)
		}
		if c.pool != nil {
			for h := 1; h < n; h++ {
				c.pool.Retain(recs[i])
			}
		}
	}
	rec := func(i int) *isa.Instr { return recs[i] } // bounds pre-validated
	instrConv := func(i int) *isa.Instr { return recs[i] }
	tagConv := func(t WakeTagState) wakeTag {
		return wakeTag{phys: t.Phys, seq: t.Seq, wrongPath: t.WrongPath, wpid: t.WPID}
	}

	if err := c.rob.RestoreState(st.ROB, rec); err != nil {
		return nil, err
	}
	if err := fifo.RestoreLink(c.fetchToDecode, st.FetchToDecode, instrConv); err != nil {
		return nil, err
	}
	if err := fifo.RestoreLink(c.decodeToRename, st.DecodeToRename, instrConv); err != nil {
		return nil, err
	}
	for _, d := range execDomains {
		if err := fifo.RestoreLink(c.dispatch[d], *st.Dispatch[d], instrConv); err != nil {
			return nil, err
		}
		if err := fifo.RestoreLink(c.complete[d], *st.Complete[d], instrConv); err != nil {
			return nil, err
		}
		es, u := st.Exec[d], c.exec[d]
		if err := u.queue.RestoreState(es.Queue, rec); err != nil {
			return nil, err
		}
		if len(es.FUBusyUntil) != len(u.fuBusyUntil) {
			return nil, fmt.Errorf("pipeline: snapshot domain %v has %d functional units, this config has %d",
				d, len(es.FUBusyUntil), len(u.fuBusyUntil))
		}
		copy(u.fuBusyUntil, es.FUBusyUntil)
		for _, op := range es.Inflight {
			u.inflight = append(u.inflight, inflightOp{in: recs[op.Rec], doneAt: op.DoneAt})
		}
	}
	if err := fifo.RestoreLink(c.wakeIntToMem, st.WakeIntToMem, tagConv); err != nil {
		return nil, err
	}
	if err := fifo.RestoreLink(c.wakeFPToMem, st.WakeFPToMem, tagConv); err != nil {
		return nil, err
	}
	if err := fifo.RestoreLink(c.wakeMemToInt, st.WakeMemToInt, tagConv); err != nil {
		return nil, err
	}
	if err := fifo.RestoreLink(c.wakeMemToFP, st.WakeMemToFP, tagConv); err != nil {
		return nil, err
	}
	for d := range c.readyAt {
		if len(st.ReadyAt[d]) != len(c.readyAt[d]) {
			return nil, fmt.Errorf("pipeline: snapshot domain %d has %d physical registers, this config has %d",
				d, len(st.ReadyAt[d]), len(c.readyAt[d]))
		}
		copy(c.readyAt[d], st.ReadyAt[d])
	}

	if err := c.pred.RestoreState(st.Pred); err != nil {
		return nil, err
	}
	if err := c.mem.RestoreState(st.Mem); err != nil {
		return nil, err
	}
	if err := c.mtr.RestoreState(st.Meter); err != nil {
		return nil, err
	}
	if err := c.rat.RestoreState(st.Rat); err != nil {
		return nil, err
	}

	c.nextSeq = st.Fetch.NextSeq
	c.inWrongPath = st.Fetch.InWrongPath
	c.currentWPID = st.Fetch.CurrentWPID
	c.icacheStallTo = st.Fetch.ICacheStallTo
	c.lastFetchLine = st.Fetch.LastFetchLine
	c.histSnapshot = st.Fetch.HistSnapshot
	c.sq.active = st.Squash.Active
	c.sq.seq = st.Squash.Seq
	switch len(st.Squash.Since) {
	case 0:
		for d := range c.sq.time {
			c.sq.time[d] = st.Squash.Time
		}
	case len(c.sq.time):
		copy(c.sq.time[:], st.Squash.Since)
	default:
		return nil, fmt.Errorf("pipeline: snapshot squash holds %d per-domain times, want %d", len(st.Squash.Since), NumDomains)
	}
	c.sq.observed = st.Squash.Observed
	c.resolvedWPID = st.ResolvedWPID
	c.decodeCycles = st.DecodeCycles
	c.lastProgress = st.LastProgress

	if len(st.DVFS.Target) != len(c.domClocks) || len(st.DVFS.Pending) != len(c.domClocks) ||
		len(st.DVFS.Frozen) != len(c.domClocks) {
		return nil, fmt.Errorf("pipeline: snapshot DVFS state sized for %d clock domains, this topology has %d",
			len(st.DVFS.Target), len(c.domClocks))
	}
	if g := st.DVFS.ProbeDomain; g < 0 || g >= len(c.domClocks) {
		return nil, fmt.Errorf("pipeline: snapshot DVFS probe domain %d outside this topology's %d clock domains",
			g, len(c.domClocks))
	}
	c.dvfs.lastCheck = st.DVFS.LastCheck
	c.dvfs.lastOccSum = st.DVFS.LastOccSum
	c.dvfs.lastTicks = st.DVFS.LastTicks
	copy(c.dvfs.target, st.DVFS.Target)
	copy(c.dvfs.pending, st.DVFS.Pending)
	c.dvfs.lastCommitted = st.DVFS.LastCommitted
	c.dvfs.probeDomain = st.DVFS.ProbeDomain
	c.dvfs.probeActive = st.DVFS.ProbeActive
	c.dvfs.probeIPC = st.DVFS.ProbeIPC
	copy(c.dvfs.frozen, st.DVFS.Frozen)

	c.smp.lastCycle = st.Sampler.LastCycle
	c.smp.lastFetched = st.Sampler.LastFetched
	c.smp.lastCommitted = st.Sampler.LastCommitted
	c.smp.lastDomCycles = st.Sampler.LastDomCycles
	c.smp.lastIssues = st.Sampler.LastIssues
	c.smp.lastOccSum = st.Sampler.LastOccSum
	c.smp.lastOccTicks = st.Sampler.LastOccTicks
	c.smp.lastStalls = st.Sampler.LastStalls

	c.stats = st.Stats
	c.stats.Kind = c.cfg.Topology.kind()
	c.stats.Benchmark = name

	for g := range c.domClocks {
		if p := st.TickPeriod[g]; p <= 0 {
			return nil, fmt.Errorf("pipeline: snapshot tick period %v for clock domain %d not positive", p, g)
		}
		if w := st.TickWhen[g]; w < 0 {
			return nil, fmt.Errorf("pipeline: snapshot tick time %v for clock domain %d is negative", w, g)
		}
	}
	copy(c.tickAt, st.TickWhen)
	copy(c.tickPeriod, st.TickPeriod)
	return c, nil
}
