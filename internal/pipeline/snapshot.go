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
// Capture appends each owning package's section straight from its live
// tables into one buffer, and restore reads them straight back into the
// tables of a freshly built core; the internal/snapshot package comment
// lays the sections out. The restored run is bit-identical to the
// straight-line run: same stage order, same edge schedule, same RNG draws,
// same statistics.

import (
	"fmt"
	"sort"

	"galsim/internal/fifo"
	"galsim/internal/isa"
	"galsim/internal/simtime"
	"galsim/internal/snapshot"
	"galsim/internal/workload"
)

// sampleMinBytes is the fewest bytes one encoded Sample takes.
const sampleMinBytes = 23 + 28*int(NumDomains)

// SnapshotAt registers commit-count triggers: when the number of committed
// instructions first reaches (or passes) each target at the start of a
// decode-domain clock edge, fn is invoked with the commit count and a
// function that appends the machine's state sections to an encoder, valid
// only during the call. Targets must be strictly ascending and every target
// must lie below the Run's instruction count, or the later triggers never
// fire (the run stops first). Capture is read-only — a run with triggers
// produces statistics identical to one without. Must be called before Run.
func (c *Core) SnapshotAt(targets []uint64, fn func(commits uint64, appendState func(*snapshot.Encoder))) error {
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
	c.snapFn(c.stats.Committed, func(e *snapshot.Encoder) { c.appendState(e, g, now) })
}

// appendState appends the machine's state sections. firing is the clock
// domain whose edge is being processed — its calendar slot already
// advanced one period, so its captured edge time is now itself — or -1 for
// a machine that is not running.
func (c *Core) appendState(e *snapshot.Encoder, firing int, now simtime.Time) {
	c.gen.(workload.Snapshotter).AppendSourceState(e)
	e.Uvarint(uint64(len(c.domClocks)))
	for _, dc := range c.domClocks {
		dc.AppendState(e)
	}
	e.Uvarint(uint64(len(c.tickAt)))
	for g, t := range c.tickAt {
		if g == firing {
			t = now
		}
		e.Time(t)
		e.Int(int(c.tickPeriod[g]))
	}
	c.pred.AppendState(e)
	c.mem.AppendState(e)
	c.mtr.AppendState(e)
	c.rat.AppendState(e)

	// Every in-flight record is written once, in place, by its first
	// holder; later holders name its index.
	if c.snapRecs == nil {
		c.snapRecs = make(map[*isa.Instr]int)
	}
	recs := c.snapRecs
	clear(recs)
	put := func(in *isa.Instr) {
		if i, ok := recs[in]; ok {
			e.Uvarint(uint64(i))
			return
		}
		recs[in] = len(recs)
		e.Uvarint(uint64(len(recs) - 1))
		in.AppendState(e)
	}
	putTag := func(t wakeTag) {
		e.Int(t.phys)
		e.Uvarint(uint64(t.seq))
		e.Bool(t.wrongPath)
		e.Uvarint(t.wpid)
	}
	c.rob.AppendState(e, put)
	fifo.AppendLink(e, c.fetchToDecode, put)
	fifo.AppendLink(e, c.decodeToRename, put)
	for _, d := range execDomains {
		fifo.AppendLink(e, c.dispatch[d], put)
		fifo.AppendLink(e, c.complete[d], put)
	}
	for _, l := range c.wakeLinks() {
		fifo.AppendLink(e, l, putTag)
	}
	for _, d := range execDomains {
		u := c.exec[d]
		u.queue.AppendState(e, put)
		appendTimes(e, u.fuBusyUntil)
		e.Uvarint(uint64(len(u.inflight)))
		for _, op := range u.inflight {
			put(op.in)
			e.Time(op.doneAt)
		}
	}
	for d := range c.readyAt {
		appendTimes(e, c.readyAt[d])
	}

	e.Uvarint(uint64(c.nextSeq))
	e.Bool(c.inWrongPath)
	e.Uvarint(c.currentWPID)
	e.Time(c.icacheStallTo)
	e.Uvarint(c.lastFetchLine)
	e.Uvarint(c.histSnapshot)
	e.Uvarint(c.resolvedWPID)
	e.Uvarint(c.decodeCycles)
	e.Uvarint(c.lastProgress)

	e.Uvarint(c.dvfs.lastCheck)
	appendCounts(e, c.dvfs.lastOccSum[:])
	appendCounts(e, c.dvfs.lastTicks[:])
	e.Uvarint(uint64(len(c.dvfs.target)))
	for _, f := range c.dvfs.target {
		e.F64(f)
	}
	e.Uvarint(uint64(len(c.dvfs.pending)))
	for _, p := range c.dvfs.pending {
		e.Bool(p)
	}
	e.Uvarint(c.dvfs.lastCommitted)
	e.Int(c.dvfs.probeDomain)
	e.Bool(c.dvfs.probeActive)
	e.F64(c.dvfs.probeIPC)
	e.Uvarint(uint64(len(c.dvfs.frozen)))
	for _, n := range c.dvfs.frozen {
		e.Int(n)
	}

	e.Uvarint(c.smp.lastCycle)
	e.Uvarint(c.smp.lastFetched)
	e.Uvarint(c.smp.lastCommitted)
	appendCounts(e, c.smp.lastDomCycles[:])
	appendCounts(e, c.smp.lastIssues[:])
	appendCounts(e, c.smp.lastOccSum[:])
	appendCounts(e, c.smp.lastOccTicks[:])
	appendCounts(e, c.smp.lastStalls.counts())

	c.appendStats(e)

	// The squash goes last. Its time is one for all domains, or each
	// domain's own after a squash superseded another still in flight.
	e.Bool(c.sq.active)
	e.Uvarint(uint64(c.sq.seq))
	for _, o := range c.sq.observed {
		e.Bool(o)
	}
	times := c.sq.time[:]
	if allEqual(times) {
		times = times[:1]
	}
	appendTimes(e, times)
}

// appendStats appends the counters a run accumulates and the samples taken
// so far. The rest of Stats is filled in by finalize, after the last
// capture, and is zero at every capture.
func (c *Core) appendStats(e *snapshot.Encoder) {
	s := &c.stats
	appendCounts(e, []uint64{s.Committed, s.Fetched, s.WrongPathFetched, s.Mispredicts, s.Recoveries, s.SquashedROB})
	e.Time(s.SimTime)
	appendCounts(e, s.Cycles[:])
	for _, d := range [...]simtime.Duration{s.SlipSum, s.FIFOSlipSum, s.ResolutionSum, s.SumFetchToDecode,
		s.SumDecodeToDispatch, s.SumDispatchToIssue, s.SumIssueToComplete, s.SumCompleteToCommit} {
		e.Int(int(d))
	}
	appendCounts(e, []uint64{s.FetchStallICache, s.FetchStallLinkFull, s.ICacheMisses, s.BTBBubbles,
		s.RenameStallROB, s.RenameStallRegs, s.RenameStallDispatch, s.CompleteBackpressure,
		s.LoadsBlockedByStores, s.Retunes})
	e.Uvarint(uint64(len(s.Samples)))
	for i := range s.Samples {
		sm := &s.Samples[i]
		e.Uvarint(sm.Cycle)
		e.F64(sm.TimeNs)
		e.Uvarint(sm.Committed)
		e.F64(sm.IPC)
		for j := range sm.Domains {
			ds := &sm.Domains[j]
			e.String(ds.Name)
			e.Uvarint(ds.Cycles)
			e.F64(ds.Slowdown)
			e.F64(ds.IPC)
			e.Int(ds.IQLen)
			e.F64(ds.IQOcc)
			e.Int(ds.FIFODepth)
		}
		appendCounts(e, sm.Stalls.counts())
	}
}

// counts lists the stall counters in their snapshot order.
func (s *StallSample) counts() []uint64 {
	return []uint64{s.FetchICache, s.FetchLinkFull, s.RenameDispatchFull, s.CompleteBackpressure, s.LoadsBlockedByStores}
}

// restoreCounts reads counters appendCounts wrote, in the order counts
// lists their fields.
func (s *StallSample) restoreCounts(d *snapshot.Decoder) {
	for _, v := range [...]*uint64{&s.FetchICache, &s.FetchLinkFull, &s.RenameDispatchFull, &s.CompleteBackpressure, &s.LoadsBlockedByStores} {
		*v = d.Uvarint()
	}
}

func appendCounts(e *snapshot.Encoder, vs []uint64) {
	for _, v := range vs {
		e.Uvarint(v)
	}
}

func restoreCounts(d *snapshot.Decoder, vs []uint64) {
	for i := range vs {
		vs[i] = d.Uvarint()
	}
}

// appendTimes appends a list of times, its length first.
func appendTimes(e *snapshot.Encoder, ts []simtime.Time) {
	e.Uvarint(uint64(len(ts)))
	for _, t := range ts {
		e.Time(t)
	}
}

// restoreTimes reads a list appendTimes wrote into ts, which must be as
// long; what names the list's entries in the error otherwise.
func restoreTimes(d *snapshot.Decoder, ts []simtime.Time, what string) {
	if n := d.Uvarint(); d.Err() == nil && n != uint64(len(ts)) {
		d.Failf("pipeline: snapshot holds %d %s, this config has %d", n, what, len(ts))
		return
	}
	for i := range ts {
		ts[i] = d.Time()
	}
}

func allEqual(ts []simtime.Time) bool {
	for _, t := range ts {
		if t != ts[0] {
			return false
		}
	}
	return true
}

// wakeLinks lists the cross-domain wake-up links in snapshot order.
func (c *Core) wakeLinks() [4]*fifo.Link[wakeTag] {
	return [...]*fifo.Link[wakeTag]{c.wakeIntToMem, c.wakeFPToMem, c.wakeMemToInt, c.wakeMemToFP}
}

// RestoreCore builds a machine from captured state sections. cfg, name and
// src must reproduce the configuration and workload source the capture came
// from (same spec — the campaign layer enforces this via the snapshot
// envelope's spec key); the restored machine then continues bit-identically
// to the machine that was captured. Run on the restored core takes the
// TOTAL instruction count — it must exceed the snapshot's committed count.
// A state that fails to decode leaves no core behind: its tables go back
// to the pools Release fills.
func RestoreCore(cfg Config, name string, src workload.InstrSource, state []byte) (*Core, error) {
	c := NewCoreWithSource(cfg, name, src)
	if _, ok := c.gen.(workload.Snapshotter); !ok {
		return nil, fmt.Errorf("pipeline: instruction source %T cannot restore a snapshot", c.gen)
	}
	d := snapshot.NewDecoder(state)
	c.restoreState(d)
	if err := d.Finish(); err != nil {
		c.Release()
		return nil, err
	}
	return c, nil
}

// restoreState reads the sections appendState wrote into a fresh core.
// Failures are recorded in d; a section after a failure reads nothing.
func (c *Core) restoreState(d *snapshot.Decoder) {
	c.gen.(workload.Snapshotter).RestoreSourceState(d)
	if n := d.Uvarint(); d.Err() == nil && n != uint64(len(c.domClocks)) {
		d.Failf("pipeline: snapshot has %d clock domains, this topology has %d", n, len(c.domClocks))
		return
	}
	for _, dc := range c.domClocks {
		dc.RestoreState(d)
	}
	if n := d.Uvarint(); d.Err() == nil && n != uint64(len(c.domClocks)) {
		d.Failf("pipeline: snapshot calendar has %d clock domains, this topology has %d", n, len(c.domClocks))
		return
	}
	for g := range c.domClocks {
		c.tickAt[g], c.tickPeriod[g] = d.Time(), simtime.Duration(d.Int())
		if p, w := c.tickPeriod[g], c.tickAt[g]; d.Err() == nil && p <= 0 {
			d.Failf("pipeline: snapshot tick period %v for clock domain %d not positive", p, g)
		} else if d.Err() == nil && w < 0 {
			d.Failf("pipeline: snapshot tick time %v for clock domain %d is negative", w, g)
		}
	}
	c.pred.RestoreState(d)
	c.mem.RestoreState(d)
	c.mtr.RestoreState(d)
	c.rat.RestoreState(d)

	// A reference one past the records read so far introduces the next
	// record, in place; the first holder takes the arena's reference, each
	// later one retains it again.
	var recs []*isa.Instr
	get := func() *isa.Instr {
		i := d.Uvarint()
		switch {
		case d.Err() != nil:
			return nil
		case i < uint64(len(recs)):
			c.retainInstr(recs[i])
			return recs[i]
		case i > uint64(len(recs)):
			d.Failf("pipeline: snapshot references record %d of %d", i, len(recs))
			return nil
		}
		var in *isa.Instr
		if c.pool != nil {
			in = c.pool.Get(0, 0, 0)
		} else {
			in = isa.NewInstr(0, 0, 0)
		}
		in.RestoreState(d)
		recs = append(recs, in)
		return in
	}
	getTag := func() wakeTag {
		return wakeTag{phys: d.Int(), seq: isa.Seq(d.Uvarint()), wrongPath: d.Bool(), wpid: d.Uvarint()}
	}
	c.rob.RestoreState(d, get)
	fifo.RestoreLink(d, c.fetchToDecode, get)
	fifo.RestoreLink(d, c.decodeToRename, get)
	for _, dom := range execDomains {
		fifo.RestoreLink(d, c.dispatch[dom], get)
		fifo.RestoreLink(d, c.complete[dom], get)
	}
	for _, l := range c.wakeLinks() {
		fifo.RestoreLink(d, l, getTag)
	}
	for _, dom := range execDomains {
		u := c.exec[dom]
		u.queue.RestoreState(d, get)
		restoreTimes(d, u.fuBusyUntil, "functional units")
		for i, n := 0, d.Len(2); i < n; i++ {
			in := get()
			u.inflight = append(u.inflight, inflightOp{in: in, doneAt: d.Time()})
		}
	}
	for dom := range c.readyAt {
		restoreTimes(d, c.readyAt[dom], "physical registers")
	}

	c.nextSeq = isa.Seq(d.Uvarint())
	c.inWrongPath = d.Bool()
	c.currentWPID = d.Uvarint()
	c.icacheStallTo = d.Time()
	c.lastFetchLine = d.Uvarint()
	c.histSnapshot = d.Uvarint()
	c.resolvedWPID = d.Uvarint()
	c.decodeCycles = d.Uvarint()
	c.lastProgress = d.Uvarint()

	c.dvfs.lastCheck = d.Uvarint()
	restoreCounts(d, c.dvfs.lastOccSum[:])
	restoreCounts(d, c.dvfs.lastTicks[:])
	if n := d.Uvarint(); d.Err() == nil && n != uint64(len(c.domClocks)) {
		d.Failf("pipeline: snapshot DVFS state sized for %d clock domains, this topology has %d", n, len(c.domClocks))
		return
	}
	for g := range c.dvfs.target {
		c.dvfs.target[g] = d.F64()
	}
	if n := d.Uvarint(); d.Err() == nil && n != uint64(len(c.domClocks)) {
		d.Failf("pipeline: snapshot DVFS state sized for %d clock domains, this topology has %d", n, len(c.domClocks))
		return
	}
	for g := range c.dvfs.pending {
		c.dvfs.pending[g] = d.Bool()
	}
	c.dvfs.lastCommitted = d.Uvarint()
	c.dvfs.probeDomain = d.Int()
	if g := c.dvfs.probeDomain; d.Err() == nil && (g < 0 || g >= len(c.domClocks)) {
		d.Failf("pipeline: snapshot DVFS probe domain %d outside this topology's %d clock domains", g, len(c.domClocks))
		return
	}
	c.dvfs.probeActive = d.Bool()
	c.dvfs.probeIPC = d.F64()
	if n := d.Uvarint(); d.Err() == nil && n != uint64(len(c.domClocks)) {
		d.Failf("pipeline: snapshot DVFS state sized for %d clock domains, this topology has %d", n, len(c.domClocks))
		return
	}
	for g := range c.dvfs.frozen {
		c.dvfs.frozen[g] = d.Int()
	}

	c.smp.lastCycle = d.Uvarint()
	c.smp.lastFetched = d.Uvarint()
	c.smp.lastCommitted = d.Uvarint()
	restoreCounts(d, c.smp.lastDomCycles[:])
	restoreCounts(d, c.smp.lastIssues[:])
	restoreCounts(d, c.smp.lastOccSum[:])
	restoreCounts(d, c.smp.lastOccTicks[:])
	c.smp.lastStalls.restoreCounts(d)

	c.restoreStats(d)

	c.sq.active = d.Bool()
	c.sq.seq = isa.Seq(d.Uvarint())
	for i := range c.sq.observed {
		c.sq.observed[i] = d.Bool()
	}
	switch n := d.Uvarint(); {
	case d.Err() != nil:
	case n == 1:
		t := d.Time()
		for i := range c.sq.time {
			c.sq.time[i] = t
		}
	case n == uint64(len(c.sq.time)):
		for i := range c.sq.time {
			c.sq.time[i] = d.Time()
		}
		if allEqual(c.sq.time[:]) {
			d.Failf("pipeline: snapshot squash holds %d equal per-domain times, the form of one", n)
		}
	default:
		d.Failf("pipeline: snapshot squash holds %d per-domain times, want 1 or %d", n, NumDomains)
	}
}

// restoreStats reads what appendStats wrote.
func (c *Core) restoreStats(d *snapshot.Decoder) {
	s := &c.stats
	for _, v := range [...]*uint64{&s.Committed, &s.Fetched, &s.WrongPathFetched, &s.Mispredicts, &s.Recoveries, &s.SquashedROB} {
		*v = d.Uvarint()
	}
	s.SimTime = d.Time()
	restoreCounts(d, s.Cycles[:])
	for _, v := range [...]*simtime.Duration{&s.SlipSum, &s.FIFOSlipSum, &s.ResolutionSum, &s.SumFetchToDecode,
		&s.SumDecodeToDispatch, &s.SumDispatchToIssue, &s.SumIssueToComplete, &s.SumCompleteToCommit} {
		*v = simtime.Duration(d.Int())
	}
	for _, v := range [...]*uint64{&s.FetchStallICache, &s.FetchStallLinkFull, &s.ICacheMisses, &s.BTBBubbles,
		&s.RenameStallROB, &s.RenameStallRegs, &s.RenameStallDispatch, &s.CompleteBackpressure,
		&s.LoadsBlockedByStores, &s.Retunes} {
		*v = d.Uvarint()
	}
	if n := d.Len(sampleMinBytes); n > 0 {
		s.Samples = make([]Sample, n)
	}
	for i := range s.Samples {
		sm := &s.Samples[i]
		sm.Cycle = d.Uvarint()
		sm.TimeNs = d.F64()
		sm.Committed = d.Uvarint()
		sm.IPC = d.F64()
		for j := range sm.Domains {
			ds := &sm.Domains[j]
			ds.Name = d.String()
			ds.Cycles = d.Uvarint()
			ds.Slowdown = d.F64()
			ds.IPC = d.F64()
			ds.IQLen = d.Int()
			ds.IQOcc = d.F64()
			ds.FIFODepth = d.Int()
		}
		sm.Stalls.restoreCounts(d)
	}
}
