package pipeline

// The interval sampler: an opt-in time-series of the machine's internal
// state, snapshotted on the decode clock every Config.SampleInterval decode
// cycles. It makes the paper's evaluation signals — per-domain issue-queue
// occupancy, inter-domain FIFO depths, and the dynamic-DVFS controller's
// slowdown trajectory — visible over time instead of only as end-of-run
// aggregates. Disabled (SampleInterval == 0, the default) it costs one
// predictable branch per decode cycle and zero allocations, keeping the
// allocation-free hot path intact.

// Sample is one interval snapshot. Rate-style fields (IPC, occupancy,
// stalls) cover the interval since the previous sample; Committed and the
// per-domain Cycles are cumulative.
type Sample struct {
	Cycle     uint64  `json:"cycle"`     // decode-domain cycle of the snapshot
	TimeNs    float64 `json:"time_ns"`   // simulated time of the snapshot
	Committed uint64  `json:"committed"` // cumulative committed instructions
	IPC       float64 `json:"ipc"`       // interval commits per decode cycle

	Domains [NumDomains]DomainSample `json:"domains"`
	Stalls  StallSample              `json:"stalls"`
}

// DomainSample is one clock/structure domain's state at a sample boundary.
// IPC is the interval instruction flow through the domain per domain cycle:
// fetched instructions for fetch, commits for decode, issues for the
// execution domains. IQ fields are zero for fetch/decode (no issue queue).
type DomainSample struct {
	Name      string  `json:"name"`
	Cycles    uint64  `json:"cycles"`     // cumulative domain clock cycles
	Slowdown  float64 `json:"slowdown"`   // current DVFS slowdown factor
	IPC       float64 `json:"ipc"`        // interval throughput per domain cycle
	IQLen     int     `json:"iq_len"`     // instantaneous issue-queue depth
	IQOcc     float64 `json:"iq_occ"`     // interval mean IQ occupancy fraction
	FIFODepth int     `json:"fifo_depth"` // instantaneous depth of the domain's inbound links
}

// StallSample is the interval delta of the machine-wide stall diagnostics.
type StallSample struct {
	FetchICache          uint64 `json:"fetch_icache"`
	FetchLinkFull        uint64 `json:"fetch_link_full"`
	RenameDispatchFull   uint64 `json:"rename_dispatch_full"`
	CompleteBackpressure uint64 `json:"complete_backpressure"`
	LoadsBlockedByStores uint64 `json:"loads_blocked"`
}

// samplerState carries the previous boundary's counter values so each
// sample reports interval deltas. It is separate from the DVFS controller's
// bookkeeping (dvfsState) even though both watch the same counters, so
// sampling never perturbs controller decisions.
type samplerState struct {
	lastCycle     uint64
	lastFetched   uint64
	lastCommitted uint64
	lastDomCycles [NumDomains]uint64
	lastIssues    [NumDomains]uint64
	lastOccSum    [NumDomains]uint64
	lastOccTicks  [NumDomains]uint64
	lastStalls    StallSample // absolute values at the last boundary
}

// maybeSample appends one Sample at each interval boundary. Called on the
// decode clock only when Config.SampleInterval > 0.
func (c *Core) maybeSample() {
	if c.decodeCycles-c.smp.lastCycle < c.cfg.SampleInterval {
		return
	}
	dc := c.decodeCycles - c.smp.lastCycle // == SampleInterval, except first
	s := Sample{
		Cycle:     c.decodeCycles,
		TimeNs:    c.now.Seconds() * 1e9,
		Committed: c.stats.Committed,
		IPC:       float64(c.stats.Committed-c.smp.lastCommitted) / float64(dc),
	}

	for d := DomainID(0); d < NumDomains; d++ {
		ds := &s.Domains[d]
		ds.Name = d.String()
		ds.Cycles = c.stats.Cycles[d]
		ds.Slowdown = c.clocks[d].Slowdown()
		cyc := ds.Cycles - c.smp.lastDomCycles[d]
		c.smp.lastDomCycles[d] = ds.Cycles
		var flow uint64
		switch d {
		case DomFetch:
			flow = c.stats.Fetched - c.smp.lastFetched
			c.smp.lastFetched = c.stats.Fetched
			ds.FIFODepth = c.fetchToDecode.Len()
		case DomDecode:
			flow = c.stats.Committed - c.smp.lastCommitted
			ds.FIFODepth = c.decodeToRename.Len()
		default:
			q := c.exec[d].queue
			issues := q.Stats().Issues
			flow = issues - c.smp.lastIssues[d]
			c.smp.lastIssues[d] = issues
			ds.IQLen = q.Len()
			occSum, ticks := q.OccupancyCounters()
			if dt := ticks - c.smp.lastOccTicks[d]; dt > 0 {
				ds.IQOcc = float64(occSum-c.smp.lastOccSum[d]) / float64(dt) / float64(q.Cap())
			}
			c.smp.lastOccSum[d], c.smp.lastOccTicks[d] = occSum, ticks
			ds.FIFODepth = c.dispatch[d].Len() + c.complete[d].Len()
		}
		if cyc > 0 {
			ds.IPC = float64(flow) / float64(cyc)
		}
	}

	now := StallSample{
		FetchICache:          c.stats.FetchStallICache,
		FetchLinkFull:        c.stats.FetchStallLinkFull,
		RenameDispatchFull:   c.stats.RenameStallDispatch,
		CompleteBackpressure: c.stats.CompleteBackpressure,
		LoadsBlockedByStores: c.stats.LoadsBlockedByStores,
	}
	s.Stalls = StallSample{
		FetchICache:          now.FetchICache - c.smp.lastStalls.FetchICache,
		FetchLinkFull:        now.FetchLinkFull - c.smp.lastStalls.FetchLinkFull,
		RenameDispatchFull:   now.RenameDispatchFull - c.smp.lastStalls.RenameDispatchFull,
		CompleteBackpressure: now.CompleteBackpressure - c.smp.lastStalls.CompleteBackpressure,
		LoadsBlockedByStores: now.LoadsBlockedByStores - c.smp.lastStalls.LoadsBlockedByStores,
	}
	c.smp.lastStalls = now
	c.smp.lastCommitted = c.stats.Committed
	c.smp.lastCycle = c.decodeCycles

	c.stats.Samples = append(c.stats.Samples, s)
}
