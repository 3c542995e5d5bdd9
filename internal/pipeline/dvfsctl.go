package pipeline

import (
	"galsim/internal/simtime"
)

// The online per-domain frequency/voltage controller (Config.DynamicDVFS):
// the "application-driven, multiple-domain dynamic clock/voltage scaling"
// the paper's conclusion identifies as the eventual payoff of GALS design
// (realized contemporaneously by Semeraro et al., HPCA 2002, via offline
// profiling; here as a simple online utilization controller).
//
// Every dvfsInterval decode cycles the controller inspects each execution
// domain's issue-queue occupancy over the elapsed interval. A nearly empty
// queue means the domain drains faster than work arrives — slack that can
// be traded for energy by slowing its clock (and dropping its voltage per
// Equation 1). A filling queue means the domain is a bottleneck and is sped
// back up. Occupancy feedback is self-stabilizing: slowing a domain raises
// its queue occupancy, so an over-slowed domain recovers — the reason
// queue-based control (as in Semeraro et al.) beats raw utilization.
// Changes take effect at the target domain's next clock edge — a local
// decision applied locally, which only a GALS machine can do.
//
// The settings: 4000-cycle intervals, slow below 5% queue occupancy,
// recover above 25%, 1.26x steps (two steps per octave) up to 3x.
const (
	dvfsInterval    uint64  = 4000 // controller period in decode cycles
	dvfsLowOcc      float64 = 0.05 // slow a domain whose IQ occupancy fraction is below this
	dvfsHighOcc     float64 = 0.25 // speed up a domain whose IQ occupancy fraction is above this
	dvfsStep        float64 = 1.26 // multiplicative frequency step (> 1)
	dvfsMaxSlowdown float64 = 3.0  // slowest allowed clock, as a factor of nominal

	// dvfsMaxStepPerfLoss is the probe guard: each slowdown step is a
	// probe, and if the machine's IPC falls by more than this fraction over
	// the following interval the step is reverted and the domain frozen for
	// dvfsFreezeIntervals. This is what keeps the controller from walking
	// into Figure 12's trap — a near-empty memory queue whose few operations
	// are all critical.
	dvfsMaxStepPerfLoss float64 = 0.02
	dvfsFreezeIntervals         = 8
)

// The controller may retune the topology's scalable clock domains (see
// TopoDomain.Scalable): domains consisting solely of execution structures,
// whose issue queues provide the feedback signal. Domains hosting the fetch
// or decode structures stay at full speed (they hold the machine's
// serialization points and have no issue queue to observe); topology
// validation rejects marking them scalable.

// dvfsState is the controller's bookkeeping inside Core. Occupancy counters
// are tracked per execution structure; targets, pending retunes and freezes
// are per clock domain (a domain owning several issue queues is judged on
// their combined occupancy and retuned as one clock).
type dvfsState struct {
	lastCheck  uint64 // decodeCycles at the last interval boundary
	lastOccSum [NumDomains]uint64
	lastTicks  [NumDomains]uint64
	target     []float64 // desired slowdown per clock domain
	pending    []bool    // retune awaiting the domain's next edge

	lastCommitted uint64
	probeDomain   int // clock domain slowed by the last probe
	probeActive   bool
	probeIPC      float64 // interval IPC before the probe
	frozen        []int
}

// dvfsController runs on the decode structure's clock: at each interval
// boundary it computes per-clock-domain issue-queue occupancy and posts
// retune requests.
func (c *Core) dvfsController() {
	if !c.cfg.DynamicDVFS || c.decodeCycles-c.dvfs.lastCheck < dvfsInterval {
		return
	}
	c.dvfs.lastCheck = c.decodeCycles

	// Interval IPC, the probe guard's signal.
	intervalIPC := float64(c.stats.Committed-c.dvfs.lastCommitted) / float64(dvfsInterval)
	c.dvfs.lastCommitted = c.stats.Committed

	// Judge the outstanding probe: revert and freeze the domain if the last
	// slowdown step cost more performance than it is allowed to.
	if c.dvfs.probeActive {
		c.dvfs.probeActive = false
		g := c.dvfs.probeDomain
		if intervalIPC < c.dvfs.probeIPC*(1-dvfsMaxStepPerfLoss) {
			c.dvfs.target[g] = c.dvfs.target[g] / dvfsStep
			if c.dvfs.target[g] < 1 {
				c.dvfs.target[g] = 1
			}
			c.dvfs.pending[g] = true
			c.dvfs.frozen[g] = dvfsFreezeIntervals
		}
	}

	// Pick at most one domain to slow this interval (so a performance drop
	// is attributable), preferring the emptiest queue; speed-ups are applied
	// unconditionally.
	slowCand := -1
	slowOcc := 1.0
	for _, g := range c.scalable {
		var num, denom float64
		var ticksTotal uint64
		for _, d := range c.cfg.Topology.structuresOf(g) {
			occSum, ticks := c.exec[d].queue.OccupancyCounters()
			dSum := occSum - c.dvfs.lastOccSum[d]
			dTicks := ticks - c.dvfs.lastTicks[d]
			c.dvfs.lastOccSum[d] = occSum
			c.dvfs.lastTicks[d] = ticks
			num += float64(dSum)
			denom += float64(dTicks) * float64(c.exec[d].queue.Cap())
			ticksTotal += dTicks
		}
		if ticksTotal == 0 {
			continue
		}
		if c.dvfs.frozen[g] > 0 {
			c.dvfs.frozen[g]--
			continue
		}
		occFrac := num / denom
		cur := c.dvfs.target[g]
		if cur == 0 {
			cur = c.domClocks[g].Slowdown()
			c.dvfs.target[g] = cur
		}
		switch {
		case occFrac > dvfsHighOcc && cur > 1:
			next := cur / dvfsStep
			if next < 1 {
				next = 1
			}
			c.dvfs.target[g] = next
			c.dvfs.pending[g] = true
		case occFrac < dvfsLowOcc && cur*dvfsStep <= dvfsMaxSlowdown && occFrac < slowOcc:
			slowCand = g
			slowOcc = occFrac
		}
	}
	if slowCand >= 0 {
		c.dvfs.target[slowCand] *= dvfsStep
		c.dvfs.pending[slowCand] = true
		c.dvfs.probeActive = true
		c.dvfs.probeDomain = slowCand
		c.dvfs.probeIPC = intervalIPC
	}
}

// maybeRetune applies a pending frequency/voltage change to clock domain g
// at one of its own clock edges (now). The domain's calendar slot moves to
// the new period, and the clock itself is rebased so that edge arithmetic
// (FIFO synchronizers, squash observation) follows the new regime.
func (c *Core) maybeRetune(g int, now simtime.Time) {
	if !c.dvfs.pending[g] {
		return
	}
	c.dvfs.pending[g] = false
	slow := c.dvfs.target[g]
	volt := 0.0
	if c.cfg.AutoVoltage {
		volt = c.voltageFor(g, slow)
	}
	c.domClocks[g].Retune(now, slow, volt)
	c.stats.Retunes++
	if c.tl != nil {
		c.tl.retune(c, g, now, slow)
	}

	// The slot already advanced by the old period when this edge fired;
	// the next edge is one new period after this one.
	c.tickPeriod[g] = c.domClocks[g].Period()
	c.tickAt[g] = now + c.tickPeriod[g]
}
