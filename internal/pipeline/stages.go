package pipeline

import (
	"galsim/internal/fifo"
	"galsim/internal/isa"
	"galsim/internal/power"
	"galsim/internal/simtime"
)

// stageFetch models pipe stage 1: I-cache access, branch prediction, and
// delivery into the fetch→decode link. On discovering a misprediction (the
// generator supplies ground truth at fetch) the front end enters wrong-path
// mode and keeps fetching junk until the branch resolves and the redirect
// arrives — exactly the behaviour whose cost grows with the GALS machine's
// longer recovery pipeline.
func (c *Core) stageFetch(now simtime.Time) {
	if c.done {
		return
	}
	if now < c.icacheStallTo {
		c.stats.FetchStallICache++
		if c.tl != nil {
			c.tl.icacheStallBegin(now)
		}
		return
	}
	if c.tl != nil {
		c.tl.icacheStallEnd(now)
	}
	for i := 0; i < c.cfg.FetchWidth; i++ {
		if !c.fetchToDecode.CanPut(now) {
			c.stats.FetchStallLinkFull++
			if c.tl != nil {
				c.tl.fetchLinkStallBegin(now)
			}
			break
		}
		if c.tl != nil {
			c.tl.fetchLinkStallEnd(now)
		}
		pc := c.gen.CurrentPC()
		if line := pc >> c.l1iLineShift; line != c.lastFetchLine {
			lat := c.mem.L1I.Access(pc, false)
			c.mtr.Access(power.BlockICache, 1)
			c.lastFetchLine = line
			if lat > memSystem.L1I.HitLatency {
				c.mtr.Access(power.BlockL2, 1)
				c.icacheStallTo = now + simtime.Time(lat)*c.clocks[DomFetch].Period()
				c.stats.ICacheMisses++
				break
			}
		}
		var in *isa.Instr
		if c.inWrongPath {
			in = c.gen.NextWrongPath()
			in.WPID = c.currentWPID
		} else {
			in = c.gen.Next()
		}
		in.Seq = c.nextSeq
		c.nextSeq++
		in.FetchTime = now
		c.stats.Fetched++
		if in.WrongPath {
			c.stats.WrongPathFetched++
		}

		stopAfter := false
		if in.Class == isa.ClassBranch {
			pred := c.pred.Predict(in.PC)
			c.mtr.Access(power.BlockBPred, 1)
			in.PredTaken, in.PredTarget = pred.Taken, pred.Target
			if !in.WrongPath {
				// Train with ground truth; trace-driven front ends resolve
				// predictor state at fetch so base and GALS see identical
				// prediction accuracy and differ only in recovery cost.
				c.pred.Resolve(in.PC, pred, in.Taken, in.Target)
				mis := pred.Taken != in.Taken
				in.Mispredicted = mis
				switch {
				case mis:
					c.stats.Mispredicts++
					c.currentWPID++
					in.WPID = c.currentWPID
					wrongTarget := in.PC + 4 // predicted fallthrough
					if pred.Taken && pred.BTBHit {
						wrongTarget = pred.Target
					}
					c.gen.StartWrongPath(wrongTarget)
					c.inWrongPath = true
					c.histSnapshot = c.pred.HistorySnapshot()
				case in.Taken && (!pred.BTBHit || pred.Target != in.Target):
					// Correct direction but the target must be computed at
					// decode: a fetch bubble, not a recovery.
					c.stats.BTBBubbles++
					c.icacheStallTo = now + c.clocks[DomFetch].Period()
					stopAfter = true
				}
			}
			stopAfter = stopAfter || pred.Taken // taken-branch fetch break
		}
		c.fetchToDecode.Put(now, in.Seq, in)
		if c.tl != nil && c.tl.detail {
			c.tl.push(c.tl.trkF2D, now, int64(in.Seq))
		}
		if stopAfter {
			break
		}
	}
}

// stageDecode models pipe stage 2: move instructions from the fetch link
// into the decode→rename latch.
func (c *Core) stageDecode(now simtime.Time) {
	for i := 0; i < decodeWidth; i++ {
		if !c.decodeToRename.CanPut(now) {
			break
		}
		if _, ok := c.fetchToDecode.Peek(now); !ok {
			break
		}
		in, wait, _ := c.fetchToDecode.Get(now)
		if c.tl != nil && c.tl.detail {
			c.tl.pop(c.tl.trkF2D, now, int64(in.Seq))
		}
		if c.doomed(in) {
			c.releaseInstr(in)
			continue
		}
		in.DecodeTime = now
		in.FIFOTime += wait
		c.mtr.Access(power.BlockRename, 1) // decode+rename logic are lumped
		c.decodeToRename.Put(now, in.Seq, in)
	}
}

// stageRenameDispatch models pipe stages 3-4: register rename, regfile read,
// ROB allocation, and dispatch into the per-cluster links. Stalls keep the
// instruction in the latch (in-order front end).
func (c *Core) stageRenameDispatch(now simtime.Time) {
	for i := 0; i < renameWidth; i++ {
		in, ok := c.decodeToRename.Peek(now)
		if !ok {
			break
		}
		if c.doomed(in) {
			c.decodeToRename.Get(now)
			c.releaseInstr(in)
			continue
		}
		if c.rob.Full() {
			c.stats.RenameStallROB++
			break
		}
		if !c.rat.CanRename(in) {
			c.stats.RenameStallRegs++
			break
		}
		dd := execDomainOf(in.Class)
		link := c.dispatch[dd]
		if !link.CanPut(now) {
			c.stats.RenameStallDispatch++
			if c.tl != nil {
				c.tl.dispatchStallBegin(dd, now)
			}
			break
		}
		if c.tl != nil {
			c.tl.dispatchStallEnd(dd, now)
		}
		_, wait, _ := c.decodeToRename.Get(now)
		in.FIFOTime += wait
		c.rat.Rename(in)
		c.mtr.Access(power.BlockRename, 1)
		c.mtr.Access(power.BlockRegfile, 2) // source reads
		if in.PhysDest >= 0 {
			c.resetReady(in.PhysDest)
		}
		// The record now lives in two structures at once: the ROB (until
		// commit or squash) and the dispatch path. Take the second arena
		// reference for the ROB's hold.
		c.retainInstr(in)
		c.rob.Push(in)
		link.Put(now, in.Seq, in)
		if c.tl != nil && c.tl.detail {
			c.tl.push(c.tl.trkDispatch[dd], now, int64(in.Seq))
		}
	}
}

// stageCommit models pipe stage 8: in-order retirement from the ROB head.
// Stores perform their D-cache write here (no speculative stores).
func (c *Core) stageCommit(now simtime.Time) {
	for i := 0; i < c.cfg.CommitWidth && !c.rob.Empty(); i++ {
		h := c.rob.Head()
		if h.WrongPath {
			// Wrong-path entries at the head are awaiting this domain's
			// squash observation; nothing can ever commit past them.
			break
		}
		if !h.Done {
			break
		}
		if h.Class == isa.ClassStore {
			lat := c.mem.L1D.Access(h.Addr, true)
			c.mtr.Access(power.BlockDCache, 1)
			if lat > memSystem.L1D.HitLatency {
				c.mtr.Access(power.BlockL2, 1)
			}
		}
		if h.PhysDest >= 0 {
			c.mtr.Access(power.BlockRegfile, 1) // architectural write
		}
		c.rat.Commit(h)
		h.CommitTime = now
		c.rob.PopHead()
		c.stats.Committed++
		c.stats.SlipSum += h.Slip()
		c.stats.FIFOSlipSum += h.FIFOTime
		c.stats.SumFetchToDecode += h.DecodeTime - h.FetchTime
		c.stats.SumDecodeToDispatch += h.DispatchTime - h.DecodeTime
		c.stats.SumDispatchToIssue += h.IssueTime - h.DispatchTime
		c.stats.SumIssueToComplete += h.CompleteTime - h.IssueTime
		c.stats.SumCompleteToCommit += h.CommitTime - h.CompleteTime
		c.lastProgress = c.decodeCycles
		if c.commitHook != nil {
			c.commitHook(h)
		}
		// Retirement drops the last reference (the completion drain released
		// the flow side when it marked the instruction done): the record
		// returns to the arena for the fetch stage to reuse.
		c.releaseInstr(h)
		if c.stats.Committed >= c.targetCommits {
			c.done = true
			return
		}
	}
}

// stageDrainCompletions models pipe stage 7's ROB side: completion
// notifications arriving from the execution domains mark instructions done.
func (c *Core) stageDrainCompletions(now simtime.Time) {
	for _, d := range execDomains {
		link := c.complete[d]
		for i := 0; i < 2*c.cfg.CommitWidth; i++ {
			if _, ok := link.Peek(now); !ok {
				break
			}
			in, wait, _ := link.Get(now)
			if c.tl != nil && c.tl.detail {
				c.tl.pop(c.tl.trkComplete[d], now, int64(in.Seq))
			}
			if c.doomed(in) {
				c.releaseInstr(in)
				continue
			}
			in.Done = true
			in.FIFOTime += wait
			// The completion left the flow structures; only the ROB still
			// holds the record.
			c.releaseInstr(in)
		}
	}
}

// wakeLinksFor returns the wakeup links a completed result must traverse to
// reach its remote consumers (precomputed shared slices; callers must not
// mutate). Same-domain consumers are woken directly at issue time
// (back-to-back issue within a cluster, §4.1).
func (c *Core) wakeLinksFor(d DomainID, in *isa.Instr) []*fifo.Link[wakeTag] {
	if in.PhysDest < 0 {
		return nil
	}
	switch d {
	case DomInt, DomFP:
		return c.wakeOut[d]
	case DomMem:
		if in.Dest.File == isa.RegFP {
			return c.wakeOutFP
		}
		return c.wakeOut[DomMem]
	default:
		return nil
	}
}

// stageComplete finishes issued operations whose latency has elapsed:
// completion notification toward the ROB, wakeup tags toward remote
// domains, and — for a mispredicted correct-path branch — the squash.
// Backpressure on any required link defers the completion a cycle.
func (c *Core) stageComplete(d DomainID, now simtime.Time) {
	u := c.exec[d]
	kept := u.inflight[:0]
	for _, op := range u.inflight {
		if op.doneAt > now {
			kept = append(kept, op)
			continue
		}
		in := op.in
		if c.doomed(in) {
			c.releaseInstr(in) // squashed in flight; result discarded
			continue
		}
		wls := c.wakeLinksFor(d, in)
		blocked := !c.complete[d].CanPut(now)
		for _, wl := range wls {
			if !wl.CanPut(now) {
				blocked = true
			}
		}
		if blocked {
			c.stats.CompleteBackpressure++
			if c.tl != nil {
				c.tl.backpressureBegin(d, now)
			}
			kept = append(kept, op)
			continue
		}
		if c.tl != nil {
			c.tl.backpressureEnd(d, now)
		}
		in.CompleteTime = now
		for _, wl := range wls {
			wl.Put(now, in.Seq, wakeTag{phys: in.PhysDest, seq: in.Seq,
				wrongPath: in.WrongPath, wpid: in.WPID})
		}
		c.complete[d].Put(now, in.Seq, in)
		if c.tl != nil && c.tl.detail {
			c.tl.push(c.tl.trkComplete[d], now, int64(in.Seq))
		}
		if in.Class == isa.ClassBranch && in.Mispredicted && !in.WrongPath {
			c.stats.ResolutionSum += now - in.FetchTime
			c.postSquash(in, now)
		}
	}
	u.inflight = kept
}

// stageDrainWakeups delivers remote results into this domain's operand
// readiness table.
func (c *Core) stageDrainWakeups(d DomainID, now simtime.Time) {
	for _, l := range c.wakeIn[d] {
		for {
			if _, ok := l.Peek(now); !ok {
				break
			}
			tag, _, _ := l.Get(now)
			if c.doomedTag(tag) {
				continue
			}
			if now < c.readyAt[d][tag.phys] {
				c.readyAt[d][tag.phys] = now
			}
			c.mtr.Access(iqBlock(d), 1) // wakeup CAM broadcast
		}
	}
}

// stageDrainDispatch moves dispatched instructions into the issue queue.
func (c *Core) stageDrainDispatch(d DomainID, now simtime.Time) {
	u := c.exec[d]
	for !u.queue.Full() {
		if _, ok := c.dispatch[d].Peek(now); !ok {
			break
		}
		in, wait, _ := c.dispatch[d].Get(now)
		if c.tl != nil && c.tl.detail {
			c.tl.pop(c.tl.trkDispatch[d], now, int64(in.Seq))
		}
		if c.doomed(in) {
			c.releaseInstr(in)
			continue
		}
		in.DispatchTime = now
		in.FIFOTime += wait
		u.queue.Insert(in)
		c.mtr.Access(iqBlock(d), 1) // window write
	}
}

// selectMemOps applies the configured load/store ordering policy while
// selecting from the memory issue queue: program order is walked once,
// tracking older stores whose addresses are still unknown (their operands
// not ready), and loads that conflict under the policy stay queued. The walk
// state and the callback itself live on the Core (reset here, built once in
// buildScratch) so a steady-state cycle performs no allocation.
func (c *Core) selectMemOps(dst []*isa.Instr, u *execUnit, width int) []*isa.Instr {
	c.memSel.pendingStores = 0
	c.memSel.pendingAddrs = c.memSel.pendingAddrs[:0]
	return u.queue.Scan(dst, width, c.memTake)
}

// stageIssue models pipe stages 5-6: select ready instructions oldest-first,
// claim functional units, access the D-cache for loads, and schedule
// completion. Same-domain consumers become ready exactly when the result
// does, giving back-to-back dependent issue within a cluster.
func (c *Core) stageIssue(d DomainID, now simtime.Time) {
	u := c.exec[d]
	u.queue.Tick()
	free := 0
	for _, b := range u.fuBusyUntil {
		if b <= now {
			free++
		}
	}
	if free == 0 {
		return
	}
	c.readyNow = now // observation instant for the prebuilt ready closures
	sel := c.selScratch[:0]
	if d == DomMem && c.cfg.MemDisambig != DisambigPerfect {
		sel = c.selectMemOps(sel, u, free)
	} else {
		sel = u.queue.SelectReady(sel, free, c.readyFn[d])
	}
	period := c.clocks[d].Period()
	for _, in := range sel {
		fu := -1
		for fi, b := range u.fuBusyUntil {
			if b <= now {
				fu = fi
				break
			}
		}
		in.IssueTime = now
		latCycles := int64(in.Class.ExecLatency())
		switch in.Class {
		case isa.ClassLoad:
			clat := c.mem.L1D.Access(in.Addr, false)
			c.mtr.Access(power.BlockDCache, 1)
			if clat > memSystem.L1D.HitLatency {
				c.mtr.Access(power.BlockL2, 1)
			}
			in.DCacheHit = clat == memSystem.L1D.HitLatency
			latCycles = 1 + int64(clat) // AGU + cache
		case isa.ClassStore:
			latCycles = 1 // AGU only; the write happens at commit
		}
		occupancy := int64(1) // pipelined units
		if in.Class == isa.ClassFPDiv || in.Class == isa.ClassIntMul {
			occupancy = latCycles // iterative units block
		}
		u.fuBusyUntil[fu] = now + simtime.Time(occupancy)*period
		doneAt := now + simtime.Time(latCycles)*period
		if in.PhysDest >= 0 {
			c.readyAt[d][in.PhysDest] = doneAt
		}
		switch d {
		case DomInt:
			c.mtr.Access(power.BlockALUs, 1)
		case DomFP:
			c.mtr.Access(power.BlockFPALUs, 1)
		}
		c.mtr.Access(iqBlock(d), 1) // select + window read
		u.inflight = append(u.inflight, inflightOp{in: in, doneAt: doneAt})
	}
}
