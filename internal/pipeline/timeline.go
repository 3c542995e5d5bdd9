package pipeline

import (
	"fmt"

	"galsim/internal/simtime"
	"galsim/internal/timeline"
)

// timelineState is the core's connection to an attached timeline.Recorder.
// Every tap site in the simulation loop is guarded by a single predictable
// `if c.tl != nil` branch — the same discipline as the interval sampler —
// so with tracing off the allocation-free hot path is untouched.
//
// Track layout (one Perfetto process, "galsim sim"):
//   - one thread track per clock domain (retune instants, squash observes)
//   - one thread track per cross-domain instruction link (stall and
//     backpressure windows; push/pop instants in detail mode)
//   - one "squash/recovery" track holding the recovery span of each
//     branch misprediction, from resolve to the last domain's observe
//   - counter tracks for IQ/ROB occupancy and per-domain slowdown (ppm);
//     detail mode adds per-link FIFO depth counters
type timelineState struct {
	rec            *timeline.Recorder
	detail         bool
	stallThreshold uint64

	trkDomain   [NumDomains]timeline.TrackID
	trkSquash   timeline.TrackID
	trkF2D      timeline.TrackID
	trkDispatch [NumDomains]timeline.TrackID
	trkComplete [NumDomains]timeline.TrackID

	ctrF2D      timeline.TrackID
	ctrDispatch [NumDomains]timeline.TrackID
	ctrComplete [NumDomains]timeline.TrackID
	ctrIQ       [NumDomains]timeline.TrackID
	ctrROB      timeline.TrackID
	ctrSlowdown [NumDomains]timeline.TrackID

	nRetune       timeline.NameID
	nStall        timeline.NameID
	nICache       timeline.NameID
	nBackpressure timeline.NameID
	nRecovery     timeline.NameID
	nObserve      timeline.NameID
	nPush         timeline.NameID
	nPop          timeline.NameID
	nStallTrip    timeline.NameID

	// Open-window state, so multi-cycle conditions become one B/E pair.
	openICache    bool
	openFetchLink bool
	openDispatch  [NumDomains]bool
	openBack      [NumDomains]bool
	openSquash    bool

	// Last emitted counter values; counters record transitions only.
	lastF2D      int
	lastROB      int
	lastDispatch [NumDomains]int
	lastComplete [NumDomains]int
	lastIQ       [NumDomains]int
	stallTripped bool
}

// AttachTimeline connects a recorder to the core. Must be called before
// Run, like OnCommit. The stall threshold (decode cycles without a commit)
// marks the recorder triggered for a flight-recorder dump; 0 disables the
// trigger. detail additionally records per-item push/pop instants on the
// cross-domain instruction links.
func (c *Core) AttachTimeline(rec *timeline.Recorder, detail bool, stallThreshold uint64) {
	if c.started {
		panic("pipeline: AttachTimeline after Run")
	}
	if rec == nil {
		c.tl = nil
		return
	}
	t := &timelineState{rec: rec, detail: detail, stallThreshold: stallThreshold}
	const proc = "galsim sim"
	for d := DomainID(0); d < NumDomains; d++ {
		t.trkDomain[d] = rec.RegisterTrack(proc, fmt.Sprintf("domain %v", d), false)
	}
	t.trkSquash = rec.RegisterTrack(proc, "squash/recovery", false)
	t.trkF2D = rec.RegisterTrack(proc, "link fetch->decode", false)
	for _, d := range execDomains {
		t.trkDispatch[d] = rec.RegisterTrack(proc, fmt.Sprintf("link dispatch->%v", d), false)
		t.trkComplete[d] = rec.RegisterTrack(proc, fmt.Sprintf("link complete<-%v", d), false)
	}
	t.ctrF2D = rec.RegisterTrack(proc, "len fetch->decode", true)
	for _, d := range execDomains {
		t.ctrDispatch[d] = rec.RegisterTrack(proc, fmt.Sprintf("len dispatch->%v", d), true)
		t.ctrComplete[d] = rec.RegisterTrack(proc, fmt.Sprintf("len complete<-%v", d), true)
		t.ctrIQ[d] = rec.RegisterTrack(proc, fmt.Sprintf("occ %v-iq", d), true)
	}
	t.ctrROB = rec.RegisterTrack(proc, "occ rob", true)
	for d := DomainID(0); d < NumDomains; d++ {
		t.ctrSlowdown[d] = rec.RegisterTrack(proc, fmt.Sprintf("slowdown %v (ppm)", d), true)
	}
	t.nRetune = rec.InternName("retune")
	t.nStall = rec.InternName("stall")
	t.nICache = rec.InternName("icache-stall")
	t.nBackpressure = rec.InternName("backpressure")
	t.nRecovery = rec.InternName("recovery")
	t.nObserve = rec.InternName("observe")
	t.nPush = rec.InternName("push")
	t.nPop = rec.InternName("pop")
	t.nStallTrip = rec.InternName("stall-threshold")

	// Baseline counters at t=0: empty structures, current slowdowns.
	t.lastF2D, t.lastROB = -1, -1
	for d := range t.lastIQ {
		t.lastIQ[d], t.lastDispatch[d], t.lastComplete[d] = -1, -1, -1
	}
	for d := DomainID(0); d < NumDomains; d++ {
		rec.Record(0, timeline.KindCounter, t.ctrSlowdown[d], 0, ppm(c.clocks[d].Slowdown()))
	}
	c.tl = t
}

func ppm(x float64) int64 { return int64(x * 1e6) }

// retune records the retune instant on every domain track of clock group g
// plus the new slowdown on the domains' counter tracks.
func (t *timelineState) retune(c *Core, g int, now simtime.Time, slow float64) {
	v := ppm(slow)
	for d := DomainID(0); d < NumDomains; d++ {
		if c.cfg.Topology.Of[d] != g {
			continue
		}
		t.rec.Record(now, timeline.KindInstant, t.trkDomain[d], t.nRetune, v)
		t.rec.Record(now, timeline.KindCounter, t.ctrSlowdown[d], 0, v)
	}
}

// squashBegin opens the recovery span when a mispredicted branch resolves.
func (t *timelineState) squashBegin(now simtime.Time, seq int64) {
	if t.openSquash {
		return
	}
	t.openSquash = true
	t.rec.Record(now, timeline.KindBegin, t.trkSquash, t.nRecovery, seq)
}

// observe marks domain d acting on the pending squash.
func (t *timelineState) observe(d DomainID, now simtime.Time) {
	t.rec.Record(now, timeline.KindInstant, t.trkDomain[d], t.nObserve, 0)
}

// squashEnd closes the recovery span once every domain has observed.
func (t *timelineState) squashEnd(now simtime.Time) {
	if !t.openSquash {
		return
	}
	t.openSquash = false
	t.rec.Record(now, timeline.KindEnd, t.trkSquash, t.nRecovery, 0)
}

// The window begin/end taps below are split into an inlinable guard and a
// slow path: most ticks re-assert an unchanged condition, and keeping the
// guard small enough to inline makes the steady-state tap a single array
// load and compare at the call site.

func (t *timelineState) icacheStallBegin(now simtime.Time) {
	if t.openICache {
		return
	}
	t.openWindow(&t.openICache, now, t.trkDomain[DomFetch], t.nICache)
}

func (t *timelineState) icacheStallEnd(now simtime.Time) {
	if !t.openICache {
		return
	}
	t.closeWindow(&t.openICache, now, t.trkDomain[DomFetch], t.nICache)
}

func (t *timelineState) fetchLinkStallBegin(now simtime.Time) {
	if t.openFetchLink {
		return
	}
	t.openWindow(&t.openFetchLink, now, t.trkF2D, t.nStall)
}

func (t *timelineState) fetchLinkStallEnd(now simtime.Time) {
	if !t.openFetchLink {
		return
	}
	t.closeWindow(&t.openFetchLink, now, t.trkF2D, t.nStall)
}

func (t *timelineState) dispatchStallBegin(d DomainID, now simtime.Time) {
	if t.openDispatch[d] {
		return
	}
	t.openWindow(&t.openDispatch[d], now, t.trkDispatch[d], t.nStall)
}

func (t *timelineState) dispatchStallEnd(d DomainID, now simtime.Time) {
	if !t.openDispatch[d] {
		return
	}
	t.closeWindow(&t.openDispatch[d], now, t.trkDispatch[d], t.nStall)
}

func (t *timelineState) backpressureBegin(d DomainID, now simtime.Time) {
	if t.openBack[d] {
		return
	}
	t.openWindow(&t.openBack[d], now, t.trkComplete[d], t.nBackpressure)
}

func (t *timelineState) backpressureEnd(d DomainID, now simtime.Time) {
	if !t.openBack[d] {
		return
	}
	t.closeWindow(&t.openBack[d], now, t.trkComplete[d], t.nBackpressure)
}

func (t *timelineState) openWindow(open *bool, now simtime.Time, trk timeline.TrackID, name timeline.NameID) {
	*open = true
	t.rec.Record(now, timeline.KindBegin, trk, name, 0)
}

func (t *timelineState) closeWindow(open *bool, now simtime.Time, trk timeline.TrackID, name timeline.NameID) {
	*open = false
	t.rec.Record(now, timeline.KindEnd, trk, name, 0)
}

// push / pop are the detail-mode per-item instants on instruction links.
func (t *timelineState) push(trk timeline.TrackID, now simtime.Time, seq int64) {
	t.rec.Record(now, timeline.KindInstant, trk, t.nPush, seq)
}

func (t *timelineState) pop(trk timeline.TrackID, now simtime.Time, seq int64) {
	t.rec.Record(now, timeline.KindInstant, trk, t.nPop, seq)
}

// counter emits a counter sample when the value changed.
func (t *timelineState) counter(last *int, trk timeline.TrackID, v int, now simtime.Time) {
	if *last == v {
		return
	}
	*last = v
	t.rec.Record(now, timeline.KindCounter, trk, 0, int64(v))
}

// observeOccupancy records occupancy transitions for the structures owned
// by the ticking clock domain: issue-queue and ROB occupancy, plus — in
// detail mode — the per-link FIFO depths. Link depths toggle on nearly
// every transfer, so like the push/pop instants they ride the detail
// flag; standard mode keeps link behaviour visible through the
// stall/backpressure windows at a fraction of the event volume. Called
// once per domain tick, after all stages ran.
func (t *timelineState) observeOccupancy(c *Core, hasFetch, hasDecode bool, execs []DomainID, now simtime.Time) {
	if hasDecode {
		t.counter(&t.lastROB, t.ctrROB, c.rob.Len(), now)
	}
	for _, d := range execs {
		t.counter(&t.lastIQ[d], t.ctrIQ[d], c.exec[d].queue.Len(), now)
	}
	if !t.detail {
		return
	}
	if hasFetch {
		t.counter(&t.lastF2D, t.ctrF2D, c.fetchToDecode.Len(), now)
	}
	for _, d := range execs {
		t.counter(&t.lastDispatch[d], t.ctrDispatch[d], c.dispatch[d].Len(), now)
		t.counter(&t.lastComplete[d], t.ctrComplete[d], c.complete[d].Len(), now)
	}
}

// checkStallTrigger fires the flight-recorder trigger the first time the
// commit-starvation counter crosses the configured threshold.
func (t *timelineState) checkStallTrigger(c *Core) {
	if t.stallThreshold == 0 || t.stallTripped {
		return
	}
	if c.decodeCycles-c.lastProgress < t.stallThreshold {
		return
	}
	t.stallTripped = true
	t.rec.MarkTriggered()
	t.rec.Record(c.now, timeline.KindInstant, t.trkDomain[DomDecode], t.nStallTrip,
		int64(c.decodeCycles-c.lastProgress))
}
