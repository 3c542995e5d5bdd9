package cluster

import (
	"context"
	"fmt"
	"log/slog"
	"sort"
	"strconv"
	"sync"
	"time"

	"galsim/internal/admission"
	"galsim/internal/campaign"
	"galsim/internal/pipeline"
	"galsim/internal/telemetry"
	"galsim/internal/timeline"
	"galsim/internal/wal"
)

// Config tunes a Coordinator. The zero value selects production defaults;
// tests inject short TTLs and a fake clock.
type Config struct {
	// LeaseTTL is how long a worker holds a job before the coordinator
	// assumes the worker is gone and re-queues it (default 30s). Workers
	// stream completions per job, so the TTL bounds one job, not a batch.
	// A worker in contact within 3×LeaseTTL counts as alive.
	LeaseTTL time.Duration
	// MaxAttempts bounds how many times one job may be dispatched before its
	// whole campaign fails (default 3). Lease expiries and worker-reported
	// errors both count: a job that deterministically breaks every worker it
	// touches must not circulate forever.
	MaxAttempts int
	// Now overrides the clock for lease-expiry tests.
	Now func() time.Time
	// Metrics is the registry the coordinator exports its fleet metrics to;
	// nil creates a private one (see Coordinator.Metrics). cmd/galsim-fleet
	// passes the service's registry so one /metrics page covers both.
	Metrics *telemetry.Registry
	// Log receives the coordinator's structured logs (campaign lifecycle,
	// job retries, lease expiries); nil uses slog.Default().
	Log *slog.Logger
	// Spans, when non-nil, enables distributed tracing: the coordinator
	// records campaign/lease/merge spans into it, stamps every job with a
	// W3C traceparent so workers record and ship their own spans, and
	// folds worker spans back in. cmd/galsim-fleet shares one collector
	// between the coordinator and the service's /sweeps/{id}/trace view.
	Spans *timeline.SpanCollector
	// Store, when non-nil, makes campaigns durable: enqueue/complete/finish
	// transitions are journaled through it and Recover resumes unfinished
	// campaigns after a coordinator restart (see JobStore and JournalStore).
	// nil keeps the pre-journal in-memory behavior.
	Store JobStore
	// MaxQueuedJobs bounds the coordinator's global queue: a batch whose
	// jobs would push the live (pending + leased) job count above this is
	// rejected with campaign.ErrBackendBusy instead of growing the queue
	// without limit (0 = unbounded).
	MaxQueuedJobs int
	// Admission, when non-nil, gates the fleet HTTP endpoints (join/lease/
	// complete) behind per-tenant API keys and token buckets; see
	// internal/admission and Register.
	Admission *admission.Controller
}

// Coordinator shards campaign batches into jobs and serves them to a fleet
// of pull-based workers (see Worker and the /jobs HTTP endpoints). It
// implements campaign.Backend: RunAll blocks until the fleet has executed
// every unit, merging results by unit index so output is byte-identical to
// a serial run regardless of worker count, scheduling, loss, or retries.
type Coordinator struct {
	cfg       Config
	log       *slog.Logger
	metrics   *telemetry.Registry
	m         coordMetrics
	startedAt time.Time

	mu       sync.Mutex
	nextID   uint64
	queue    []uint64        // pending bulk job ids, FIFO; entries may be stale (checked on pop)
	queuePri []uint64        // pending interactive job ids, leased ahead of bulk
	jobs     map[uint64]*job // all live (pending + leased) jobs
	workers  map[string]*workerState
	wake     chan struct{} // closed and replaced whenever work becomes available

	jobsDone uint64
	expiries uint64 // leases re-queued because their worker went silent
	failures uint64 // worker-reported job failures (re-queued on other workers)
}

// coordMetrics holds the coordinator's metric handles. Queue depth, flight
// count and worker liveness are function gauges reading coordinator state
// at scrape time; the rest are event counters and the per-worker job
// latency histogram.
type coordMetrics struct {
	campaigns          telemetry.Counter
	campaignsFailed    telemetry.Counter
	campaignsRejected  telemetry.Counter // bounded-queue rejections (nothing enqueued)
	leasesGranted      telemetry.Counter // label: worker
	jobsCompleted      telemetry.Counter // label: worker
	jobFailures        telemetry.Counter // label: worker
	leaseExpiries      telemetry.Counter // label: worker
	checkpoints        telemetry.Counter // label: worker
	ckptResumes        telemetry.Counter // jobs re-leased with a checkpoint attached
	jobSeconds         telemetry.Histogram
	recoveredCampaigns telemetry.Counter // campaigns resumed from the job store
	recoveredJobs      telemetry.Counter // result slots filled from the journal, not re-run
}

type jobState int

const (
	jobPending jobState = iota
	jobLeased
)

// job is one dispatchable unit: a canonical spec plus every result slot it
// fills (identical specs within a batch collapse into a single job).
type job struct {
	id        uint64
	spec      campaign.RunSpec
	key       string // spec.Key(), the job's identity in the journal
	camp      *campaignRun
	slots     []int // indices into camp.results
	pri       campaign.Priority
	state     jobState
	worker    string    // current lease holder (leased only)
	deadline  time.Time // lease expiry (leased only)
	leasedAt  time.Time // when the current lease was granted (leased only)
	leaseSpan string    // span ID of the current lease (tracing only)
	attempts  int
	excluded  map[string]bool // workers that reported a failure for this job
	lastErr   string
	// checkpoint is the latest mid-run snapshot posted by a lease holder
	// (envelope-encoded); a re-lease carries it so the next worker resumes
	// instead of restarting. ckptCommitted mirrors the snapshot's committed
	// count for logs.
	checkpoint    []byte
	ckptCommitted uint64
}

// campaignRun is one RunAll call in flight: its result slots, completion
// signal, and progress accounting (in result-slot units, so duplicate specs
// collapsed into one job still advance the caller's sweep-sized total).
type campaignRun struct {
	results   []pipeline.Stats
	remaining int // jobs not yet completed
	done      chan struct{}
	err       error
	finished  bool

	// id is the campaign's durable identity in the job store; random, so
	// ids never collide across coordinator restarts.
	id         string
	pri        campaign.Priority
	requestID  string
	onProgress campaign.ProgressFunc
	total      int
	completed  int // result slots filled
	failed     int // result slots of permanently failed jobs

	// Tracing identity (set only when the coordinator has a span
	// collector): the campaign root span, its parent from the caller's
	// context, and when the batch was submitted.
	traceID    string
	parentSpan string
	rootSpan   string
	startedAt  time.Time
}

// snapshotLocked builds this campaign's progress view; c.mu must be held.
func (camp *campaignRun) snapshotLocked() campaign.Progress {
	return campaign.Progress{Total: camp.total, Completed: camp.completed, Failed: camp.failed}
}

// workerState is the coordinator's view of one fleet member.
type workerState struct {
	id        string
	addr      string
	slots     int
	lastSeen  time.Time
	leased    int
	completed uint64
	failed    uint64
	expired   uint64
	cache     campaign.CacheStats // worker's engine counters, last reported
}

// NewCoordinator builds a coordinator with the given config (zero fields
// take defaults).
func NewCoordinator(cfg Config) *Coordinator {
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 30 * time.Second
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 3
	}
	log := cfg.Log
	if log == nil {
		log = slog.Default()
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	c := &Coordinator{
		cfg:     cfg,
		log:     log,
		metrics: reg,
		jobs:    map[uint64]*job{},
		workers: map[string]*workerState{},
		wake:    make(chan struct{}),
	}
	c.startedAt = c.now()
	c.m = coordMetrics{
		campaigns:       reg.Counter("galsim_fleet_campaigns_total", "Campaign batches submitted to the fleet."),
		campaignsFailed: reg.Counter("galsim_fleet_campaigns_failed_total", "Campaign batches that finished with an error."),
		leasesGranted:   reg.Counter("galsim_fleet_leases_granted_total", "Job leases granted, by worker.", "worker"),
		jobsCompleted:   reg.Counter("galsim_fleet_jobs_completed_total", "Jobs completed successfully, by worker.", "worker"),
		jobFailures:     reg.Counter("galsim_fleet_job_failures_total", "Worker-reported job failures, by worker.", "worker"),
		leaseExpiries:   reg.Counter("galsim_fleet_lease_expiries_total", "Leases re-queued after their worker went silent, by worker.", "worker"),
		jobSeconds: reg.Histogram("galsim_fleet_job_seconds",
			"Job latency from lease grant to accepted completion, by worker.", nil, "worker"),
		campaignsRejected: reg.Counter("galsim_fleet_campaigns_rejected_total",
			"Campaign batches rejected because the bounded job queue was full."),
		checkpoints: reg.Counter("galsim_fleet_checkpoints_total",
			"Mid-run job checkpoints accepted from lease holders, by worker.", "worker"),
		ckptResumes: reg.Counter("galsim_fleet_checkpoint_resumes_total",
			"Jobs leased out with a checkpoint attached (resumed, not restarted)."),
	}
	if cfg.Store != nil {
		c.m.recoveredCampaigns = reg.Counter("galsim_wal_recovered_campaigns_total",
			"Campaigns resumed from the job-store journal after a coordinator restart.")
		c.m.recoveredJobs = reg.Counter("galsim_wal_recovered_units_total",
			"Result slots filled from journaled completions instead of re-running.")
	}
	if ws, ok := cfg.Store.(interface{ WALStats() wal.Stats }); ok {
		walGauge := func(name, help string, field func(wal.Stats) uint64) {
			reg.GaugeFunc(name, help, func() float64 { return float64(field(ws.WALStats())) })
		}
		walGauge("galsim_wal_appends", "Records appended to the coordinator journal.",
			func(s wal.Stats) uint64 { return s.Appends })
		walGauge("galsim_wal_fsyncs", "fsync calls issued by the coordinator journal.",
			func(s wal.Stats) uint64 { return s.Fsyncs })
		walGauge("galsim_wal_bytes_written", "Frame bytes written to the coordinator journal.",
			func(s wal.Stats) uint64 { return s.BytesWritten })
		walGauge("galsim_wal_segments", "Live segment files in the coordinator journal.",
			func(s wal.Stats) uint64 { return s.Segments })
		walGauge("galsim_wal_compactions", "Journal compactions (rewrites after a campaign finished).",
			func(s wal.Stats) uint64 { return s.Compactions })
		walGauge("galsim_wal_torn_truncations", "Torn journal tails truncated during crash recovery.",
			func(s wal.Stats) uint64 { return s.TornTruncations })
		walGauge("galsim_wal_replayed_records", "Journal records replayed on boot.",
			func(s wal.Stats) uint64 { return s.ReplayedRecords })
	}
	reg.GaugeFunc("galsim_fleet_jobs_pending", "Jobs waiting for a lease.", func() float64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		n := 0
		for _, j := range c.jobs {
			if j.state == jobPending {
				n++
			}
		}
		return float64(n)
	})
	reg.GaugeFunc("galsim_fleet_jobs_in_flight", "Jobs currently leased to workers.", func() float64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		n := 0
		for _, j := range c.jobs {
			if j.state == jobLeased {
				n++
			}
		}
		return float64(n)
	})
	reg.GaugeFunc("galsim_fleet_workers", "Workers ever registered with the coordinator.", func() float64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		return float64(len(c.workers))
	})
	reg.GaugeFunc("galsim_fleet_workers_alive", "Workers in contact within the liveness window.", func() float64 {
		now := c.now()
		c.mu.Lock()
		defer c.mu.Unlock()
		n := 0
		for _, w := range c.workers {
			if c.alive(w, now) {
				n++
			}
		}
		return float64(n)
	})
	reg.GaugeFunc("galsim_fleet_uptime_seconds", "Seconds since the coordinator started.", func() float64 {
		return c.now().Sub(c.startedAt).Seconds()
	})
	return c
}

// Metrics returns the registry holding the coordinator's fleet metrics
// (the one from Config.Metrics, or the private default).
func (c *Coordinator) Metrics() *telemetry.Registry { return c.metrics }

func (c *Coordinator) now() time.Time {
	if c.cfg.Now != nil {
		return c.cfg.Now()
	}
	return time.Now()
}

// LeaseTTL returns the configured lease duration.
func (c *Coordinator) LeaseTTL() time.Duration { return c.cfg.LeaseTTL }

var _ campaign.ProgressBackend = (*Coordinator)(nil)

// RunAll implements campaign.Backend: it validates and canonicalizes the
// batch, enqueues one job per unique spec, and blocks until the fleet has
// completed all of them (or ctx is cancelled, or a job exhausts its
// attempts). Stats are returned in spec order.
func (c *Coordinator) RunAll(ctx context.Context, specs []campaign.RunSpec) ([]pipeline.Stats, error) {
	return c.RunAllProgress(ctx, specs, nil)
}

// RunAllProgress is RunAll with live progress reporting (see
// campaign.ProgressBackend). fn receives a snapshot as workers complete
// jobs; CacheHits is always zero here — caching happens inside each
// worker's engine and shows up in FleetStats.Cache instead.
//
// The batch adopts the request ID carried by ctx (see telemetry.RequestID);
// without one a fresh ID is generated. Every job of the batch carries the
// ID to its worker, so one sweep's lifecycle is greppable across the
// coordinator's and every worker's logs.
func (c *Coordinator) RunAllProgress(ctx context.Context, specs []campaign.RunSpec, fn campaign.ProgressFunc) ([]pipeline.Stats, error) {
	if len(specs) == 0 {
		if fn != nil {
			fn(campaign.Progress{})
		}
		return nil, nil
	}
	canon := make([]campaign.RunSpec, len(specs))
	for i, s := range specs {
		// Resolving here pins trace digests and profile contents before
		// anything crosses the wire, so a job's cache identity on every
		// worker matches the bytes the coordinator validated.
		u, err := s.Resolve()
		if err != nil {
			return nil, fmt.Errorf("campaign: unit %d (%s/%s): %w", i, s.MachineName(), u.WorkloadName(), err)
		}
		canon[i] = u.Spec()
	}
	reqID := telemetry.RequestID(ctx)
	if reqID == "" {
		reqID = telemetry.NewRequestID()
	}
	camp, err := c.submit(canon, reqID, telemetry.Trace(ctx), fn, campaign.PriorityOf(ctx))
	if err != nil {
		return nil, err
	}
	// The ticker is a liveness backstop: lease and complete calls already
	// expire stale leases, but if every worker dies no such call ever comes.
	tick := time.NewTicker(clampTick(c.cfg.LeaseTTL / 2))
	defer tick.Stop()
	for {
		select {
		case <-camp.done:
			c.mu.Lock()
			results, err := camp.results, camp.err
			final := camp.snapshotLocked()
			c.mu.Unlock()
			if fn != nil {
				fn(final)
			}
			c.recordCampaignSpans(camp, err)
			c.journalFinish(camp, err)
			if err != nil {
				c.m.campaignsFailed.Inc()
				c.log.Warn("campaign failed", "request_id", reqID, "units", len(specs), "error", err.Error())
				return nil, err
			}
			c.log.Info("campaign done", "request_id", reqID, "units", len(specs))
			return results, nil
		case <-ctx.Done():
			c.mu.Lock()
			c.finishLocked(camp, ctx.Err())
			c.mu.Unlock()
			c.recordCampaignSpans(camp, ctx.Err())
			c.journalFinish(camp, ctx.Err())
			c.m.campaignsFailed.Inc()
			c.log.Warn("campaign cancelled", "request_id", reqID, "units", len(specs))
			return nil, ctx.Err()
		case <-tick.C:
			c.mu.Lock()
			c.expireLocked(c.now())
			c.mu.Unlock()
		}
	}
}

func clampTick(d time.Duration) time.Duration {
	const lo, hi = 25 * time.Millisecond, 5 * time.Second
	return min(max(d, lo), hi)
}

// specGroup is one unique spec within a batch plus every result slot it
// fills (identical specs collapse into a single job).
type specGroup struct {
	key   string
	spec  campaign.RunSpec
	slots []int
}

// groupByKey collapses a canonical batch into unique-spec groups, in first-
// occurrence order so job creation stays deterministic.
func groupByKey(canon []campaign.RunSpec) []specGroup {
	idx := map[string]int{}
	var groups []specGroup
	for i, s := range canon {
		k := s.Key()
		if gi, ok := idx[k]; ok {
			groups[gi].slots = append(groups[gi].slots, i)
			continue
		}
		idx[k] = len(groups)
		groups = append(groups, specGroup{key: k, spec: s, slots: []int{i}})
	}
	return groups
}

// submit enqueues one job per unique spec key, fanning duplicate specs out
// to all of their result slots, and wakes long-polling workers. The batch
// is journaled through the job store (when configured) before anything is
// enqueued, so a crash after submit returns can always resume it; a full
// bounded queue rejects the batch with campaign.ErrBackendBusy instead.
func (c *Coordinator) submit(canon []campaign.RunSpec, reqID string, tc telemetry.TraceContext, fn campaign.ProgressFunc, pri campaign.Priority) (*campaignRun, error) {
	groups := groupByKey(canon)
	if max := c.cfg.MaxQueuedJobs; max > 0 {
		c.mu.Lock()
		live := len(c.jobs)
		c.mu.Unlock()
		if live+len(groups) > max {
			c.m.campaignsRejected.Inc()
			c.log.Warn("campaign rejected: queue full", "request_id", reqID,
				"live_jobs", live, "batch_jobs", len(groups), "limit", max)
			return nil, fmt.Errorf("cluster: %d jobs live and %d arriving exceed the %d-job queue limit: %w",
				live, len(groups), max, campaign.ErrBackendBusy)
		}
	}
	camp := &campaignRun{
		results:    make([]pipeline.Stats, len(canon)),
		done:       make(chan struct{}),
		id:         "camp-" + telemetry.NewRequestID(),
		pri:        pri,
		requestID:  reqID,
		onProgress: fn,
		total:      len(canon),
	}
	if c.cfg.Spans != nil {
		// Adopt the caller's trace (the service request that started the
		// sweep) or root a fresh one; either way every job of the batch —
		// and every worker span shipped back — shares camp.traceID. A
		// self-minted trace has no caller span, so the campaign span
		// becomes the true root rather than pointing at a parent that
		// exists nowhere.
		if !tc.Valid() {
			tc = telemetry.TraceContext{TraceID: timeline.NewTraceID()}
		}
		camp.traceID = tc.TraceID
		camp.parentSpan = tc.SpanID
		camp.rootSpan = timeline.NewSpanID()
		camp.startedAt = c.now()
	}
	if c.cfg.Store != nil {
		// Write-ahead: the journal append (and its fsync) happens before the
		// queue sees the batch, so "submit returned" implies "survives a
		// crash". The store has its own lock; c.mu is not held across the
		// fsync.
		if err := c.cfg.Store.CampaignEnqueued(camp.id, reqID, pri, canon); err != nil {
			c.m.campaignsRejected.Inc()
			return nil, fmt.Errorf("cluster: journaling campaign: %w", err)
		}
	}
	c.mu.Lock()
	c.enqueueGroupsLocked(camp, groups)
	c.wakeLocked()
	c.mu.Unlock()
	c.m.campaigns.Inc()
	c.log.Info("campaign enqueued", "request_id", reqID, "campaign", camp.id,
		"priority", pri.String(), "units", len(canon), "jobs", len(groups))
	return camp, nil
}

// enqueueGroupsLocked materializes jobs for the groups that still need
// running, filling any slots whose results are already known (journal
// recovery passes them in via camp.results + prefilled keys — see resume).
// c.mu must be held.
func (c *Coordinator) enqueueGroupsLocked(camp *campaignRun, groups []specGroup) {
	for _, g := range groups {
		c.nextID++
		j := &job{id: c.nextID, spec: g.spec, key: g.key, camp: camp, slots: g.slots, pri: camp.pri}
		c.jobs[j.id] = j
		if camp.pri == campaign.PriorityInteractive {
			c.queuePri = append(c.queuePri, j.id)
		} else {
			c.queue = append(c.queue, j.id)
		}
		camp.remaining++
	}
}

// wakeLocked signals every long-polling lease request that work may be
// available.
func (c *Coordinator) wakeLocked() {
	close(c.wake)
	c.wake = make(chan struct{})
}

// requeueFrontLocked puts a job back at the head of its priority lane (it
// already waited its turn once) and wakes lease waiters. c.mu must be held.
func (c *Coordinator) requeueFrontLocked(j *job) {
	if j.pri == campaign.PriorityInteractive {
		c.queuePri = append([]uint64{j.id}, c.queuePri...)
	} else {
		c.queue = append([]uint64{j.id}, c.queue...)
	}
	c.wakeLocked()
}

// journalFinish records a campaign's terminal transition in the job store
// (triggering log compaction). Store errors only log: the in-memory result
// is already settled, and the worst case of a lost finish record is the
// campaign re-running after a restart — wasteful, never wrong.
func (c *Coordinator) journalFinish(camp *campaignRun, err error) {
	if c.cfg.Store == nil || camp.id == "" {
		return
	}
	msg := ""
	if err != nil {
		msg = err.Error()
	}
	if serr := c.cfg.Store.CampaignFinished(camp.id, msg); serr != nil {
		c.log.Warn("journaling campaign finish failed", "campaign", camp.id, "error", serr.Error())
	}
}

// tryLease grants up to slots pending jobs to the worker, first expiring
// stale leases. It returns the granted jobs plus the channel a caller with
// nothing granted should wait on before retrying.
func (c *Coordinator) tryLease(workerID string, slots int, cache campaign.CacheStats) ([]Job, <-chan struct{}) {
	now := c.now()
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.touchWorkerLocked(workerID, now)
	w.cache = cache
	c.expireLocked(now)
	var granted []Job
	// Per-lane skip lists: jobs this worker is excluded from go back to the
	// front of their own lane, preserving both FIFO order and priority.
	var skippedPri, skippedBulk []uint64
	for len(granted) < slots {
		var id uint64
		fromPri := false
		switch {
		case len(c.queuePri) > 0:
			// Interactive work always leases ahead of bulk.
			id, fromPri = c.queuePri[0], true
			c.queuePri = c.queuePri[1:]
		case len(c.queue) > 0:
			id = c.queue[0]
			c.queue = c.queue[1:]
		default:
			id = 0
		}
		if id == 0 {
			break
		}
		j, ok := c.jobs[id]
		if !ok || j.state != jobPending {
			continue // completed, failed campaign, or re-queued under a newer entry
		}
		if j.excluded[workerID] {
			// Held back for a worker that has not already failed it — unless
			// no live worker remains eligible, in which case waiting is a
			// wedge, not a retry.
			if c.noEligibleWorkerLocked(j, now) {
				j.camp.failed += len(j.slots)
				c.finishLocked(j.camp, fmt.Errorf(
					"cluster: unit %d (%s/%s) failed on every live worker (%d); last error: %s",
					j.slots[0], j.spec.Machine, j.spec.WorkloadName(), len(j.excluded), j.lastErr))
				continue
			}
			if fromPri {
				skippedPri = append(skippedPri, id)
			} else {
				skippedBulk = append(skippedBulk, id)
			}
			continue
		}
		j.state = jobLeased
		j.worker = workerID
		j.deadline = now.Add(c.cfg.LeaseTTL)
		j.leasedAt = now
		w.leased++
		jb := Job{ID: j.id, Spec: j.spec, RequestID: j.camp.requestID, Checkpoint: j.checkpoint}
		if len(j.checkpoint) > 0 {
			c.m.ckptResumes.Inc()
		}
		if c.cfg.Spans != nil && j.camp.traceID != "" {
			// A fresh span per lease (re-leases get their own), closed when
			// the lease settles: completion, failure, or expiry.
			j.leaseSpan = timeline.NewSpanID()
			jb.TraceParent = timeline.FormatTraceParent(j.camp.traceID, j.leaseSpan)
		}
		granted = append(granted, jb)
	}
	if len(skippedPri) > 0 {
		c.queuePri = append(skippedPri, c.queuePri...)
	}
	if len(skippedBulk) > 0 {
		c.queue = append(skippedBulk, c.queue...)
	}
	for _, jb := range granted {
		c.m.leasesGranted.Inc(workerID)
		c.log.Debug("job leased", "request_id", jb.RequestID, "job_id", jb.ID, "worker", workerID)
	}
	return granted, c.wake
}

// expireLocked re-queues every leased job whose deadline has passed: its
// worker is presumed dead or wedged, and the surviving fleet picks the job
// up on its next lease. The expired worker is not excluded — unlike a
// reported failure, an expiry carries no evidence the job itself is at
// fault, and excluding the sole member of a one-worker fleet would wedge
// the queue.
func (c *Coordinator) expireLocked(now time.Time) {
	for id, j := range c.jobs {
		if j.state != jobLeased || !now.After(j.deadline) {
			continue
		}
		c.expiries++
		if w := c.workers[j.worker]; w != nil {
			w.leased--
			w.expired++
		}
		lastWorker := j.worker
		c.leaseSpanLocked(j, lastWorker, now, "expired", "")
		c.m.leaseExpiries.Inc(lastWorker)
		c.log.Warn("lease expired", "request_id", j.camp.requestID, "job_id", id,
			"worker", lastWorker, "attempts", j.attempts+1)
		j.state = jobPending
		j.worker = ""
		j.attempts++
		if j.attempts >= c.cfg.MaxAttempts {
			j.camp.failed += len(j.slots)
			c.finishLocked(j.camp, fmt.Errorf(
				"cluster: job %d (%s/%s) abandoned after %d lease expiries/failures; last worker %s went silent",
				id, j.spec.Machine, j.spec.WorkloadName(), j.attempts, lastWorker))
			continue
		}
		c.requeueFrontLocked(j)
	}
}

// complete applies a batch of worker results: successes fill their result
// slots (first result wins; duplicates from re-leased jobs are ignored),
// failures re-queue the job excluding the reporting worker until attempts
// run out. Returns how many results were accepted.
func (c *Coordinator) complete(workerID string, results []JobResult, cache campaign.CacheStats) int {
	now := c.now()
	// Progress callbacks and log lines collected under the lock fire after
	// it is released: a callback that called back into the coordinator (or
	// a slow log writer) must not stall the fleet.
	var after []func()
	c.mu.Lock()
	w := c.touchWorkerLocked(workerID, now)
	w.cache = cache
	accepted := 0
	for _, r := range results {
		j, ok := c.jobs[r.JobID]
		if !ok {
			continue // already completed elsewhere, or its campaign is gone
		}
		if (r.Error != "" || r.Stats == nil) && !(j.state == jobLeased && j.worker == workerID) {
			// A failure report from a worker that no longer holds the lease
			// (it expired, or the job was re-assigned) must not unwind the
			// current holder's active lease or burn an attempt — the live
			// run may well succeed. Stale *successes*, by contrast, are
			// accepted below: results are deterministic, first one wins.
			continue
		}
		if j.state == jobLeased {
			if lw := c.workers[j.worker]; lw != nil {
				lw.leased--
			}
			// Settle the lease before any finishLocked below, which would
			// otherwise decrement the holder a second time.
			j.state = jobPending
			j.worker = ""
		}
		if r.Error != "" || r.Stats == nil {
			c.leaseSpanLocked(j, workerID, now, "failed", r.Error)
			c.failures++
			w.failed++
			j.attempts++
			if j.excluded == nil {
				j.excluded = map[string]bool{}
			}
			j.excluded[workerID] = true
			j.lastErr = r.Error
			c.m.jobFailures.Inc(workerID)
			reqID, jobID, lastErr := j.camp.requestID, j.id, j.lastErr
			after = append(after, func() {
				c.log.Warn("job failed", "request_id", reqID, "job_id", jobID,
					"worker", workerID, "error", lastErr)
			})
			if j.attempts >= c.cfg.MaxAttempts || c.noEligibleWorkerLocked(j, now) {
				j.camp.failed += len(j.slots)
				c.finishLocked(j.camp, fmt.Errorf(
					"cluster: unit %d (%s/%s) failed on %d worker(s); last error from %s: %s",
					j.slots[0], j.spec.Machine, j.spec.WorkloadName(), len(j.excluded), workerID, j.lastErr))
				continue
			}
			c.requeueFrontLocked(j)
			continue
		}
		accepted++
		w.completed++
		c.leaseSpanLocked(j, workerID, now, "", "")
		for _, slot := range j.slots {
			j.camp.results[slot] = *r.Stats
		}
		delete(c.jobs, j.id)
		c.jobsDone++
		j.camp.remaining--
		j.camp.completed += len(j.slots)
		c.m.jobsCompleted.Inc(workerID)
		if !j.leasedAt.IsZero() {
			c.m.jobSeconds.Observe(now.Sub(j.leasedAt).Seconds(), workerID)
		}
		reqID, jobID := j.camp.requestID, j.id
		after = append(after, func() {
			c.log.Debug("job completed", "request_id", reqID, "job_id", jobID, "worker", workerID)
		})
		if c.cfg.Store != nil && j.camp.id != "" {
			// Journaled after the in-memory fill, outside c.mu: a crash in
			// between re-runs the job on recovery, which deterministic
			// execution makes safe. The store serializes its own appends.
			campID, key, stats := j.camp.id, j.key, r.Stats
			after = append(after, func() {
				if err := c.cfg.Store.JobCompleted(campID, key, stats); err != nil {
					c.log.Warn("journaling job completion failed",
						"campaign", campID, "job_id", jobID, "error", err.Error())
				}
			})
		}
		if fn := j.camp.onProgress; fn != nil {
			snap := j.camp.snapshotLocked()
			after = append(after, func() { fn(snap) })
		}
		if j.camp.remaining == 0 {
			c.finishLocked(j.camp, nil)
		}
	}
	c.mu.Unlock()
	for _, f := range after {
		f()
	}
	return accepted
}

// checkpoint records a mid-run snapshot for a leased job. Only the current
// lease holder is believed (a zombie whose lease expired gets false and
// should abandon the run); an accepted checkpoint also extends the lease —
// a long job checkpointing on schedule is alive by construction and must
// not expire mid-run just because it outlasts the TTL. The snapshot is
// journaled through the store's CheckpointStore side when it has one, so a
// coordinator crash keeps the progress too.
func (c *Coordinator) checkpoint(req CheckpointRequest) bool {
	now := c.now()
	c.mu.Lock()
	c.touchWorkerLocked(req.WorkerID, now)
	j, ok := c.jobs[req.JobID]
	if !ok || j.state != jobLeased || j.worker != req.WorkerID {
		c.mu.Unlock()
		return false
	}
	j.checkpoint = req.Snapshot
	j.ckptCommitted = req.Committed
	j.deadline = now.Add(c.cfg.LeaseTTL)
	c.m.checkpoints.Inc(req.WorkerID)
	campID, key, reqID := j.camp.id, j.key, j.camp.requestID
	c.mu.Unlock()
	c.log.Debug("job checkpointed", "request_id", reqID, "job_id", req.JobID,
		"worker", req.WorkerID, "committed", req.Committed, "bytes", len(req.Snapshot))
	if cs, ok := c.cfg.Store.(CheckpointStore); ok && campID != "" {
		// Outside c.mu: the store fsyncs. A lost append degrades to
		// restart-from-an-older-checkpoint after a coordinator crash.
		if err := cs.JobCheckpoint(campID, key, req.Snapshot); err != nil {
			c.log.Warn("journaling checkpoint failed", "campaign", campID,
				"job_id", req.JobID, "error", err.Error())
		}
	}
	return true
}

// leaseSpanLocked closes the job's current lease span — one span per grant,
// from tryLease to the settlement observed now (completion, a worker-reported
// failure, or an expiry). c.mu must be held; SpanCollector has its own lock
// and never calls back into the coordinator.
func (c *Coordinator) leaseSpanLocked(j *job, workerID string, now time.Time, outcome, errMsg string) {
	if c.cfg.Spans == nil || j.leaseSpan == "" || j.leasedAt.IsZero() {
		return
	}
	attrs := map[string]string{
		"job_id": strconv.FormatUint(j.id, 10),
		"worker": workerID,
	}
	if outcome != "" {
		attrs["outcome"] = outcome
	}
	if errMsg != "" {
		attrs["error"] = errMsg
	}
	c.cfg.Spans.Add(timeline.Span{
		TraceID:     j.camp.traceID,
		SpanID:      j.leaseSpan,
		ParentID:    j.camp.rootSpan,
		Name:        "job lease",
		Service:     "coordinator",
		StartUnixNs: j.leasedAt.UnixNano(),
		EndUnixNs:   now.UnixNano(),
		Attrs:       attrs,
	})
	j.leaseSpan = ""
}

// recordCampaignSpans settles a campaign's trace once its RunAllProgress
// call resolves: the root span covering submit→finish, plus a merge marker
// for the instant the last result slot was assembled. Called without c.mu —
// the campaign is finished, so its trace fields are immutable.
func (c *Coordinator) recordCampaignSpans(camp *campaignRun, err error) {
	if c.cfg.Spans == nil || camp.traceID == "" {
		return
	}
	end := c.now()
	attrs := map[string]string{
		"request_id": camp.requestID,
		"units":      strconv.Itoa(camp.total),
	}
	if err != nil {
		attrs["error"] = err.Error()
	}
	c.cfg.Spans.Add(timeline.Span{
		TraceID:     camp.traceID,
		SpanID:      camp.rootSpan,
		ParentID:    camp.parentSpan,
		Name:        "campaign",
		Service:     "coordinator",
		StartUnixNs: camp.startedAt.UnixNano(),
		EndUnixNs:   end.UnixNano(),
		Attrs:       attrs,
	})
	if err == nil {
		c.cfg.Spans.Add(timeline.Span{
			TraceID:     camp.traceID,
			SpanID:      timeline.NewSpanID(),
			ParentID:    camp.rootSpan,
			Name:        "merge",
			Service:     "coordinator",
			StartUnixNs: end.UnixNano(),
			EndUnixNs:   end.UnixNano(),
			Attrs:       map[string]string{"units": strconv.Itoa(camp.total)},
		})
	}
}

// addSpans folds worker-shipped spans into the collector (no-op without one).
func (c *Coordinator) addSpans(spans []timeline.Span) {
	if c.cfg.Spans == nil || len(spans) == 0 {
		return
	}
	c.cfg.Spans.Add(spans...)
}

// alive reports whether worker w has contacted the coordinator within the
// liveness window, three lease TTLs.
func (c *Coordinator) alive(w *workerState, now time.Time) bool {
	return now.Sub(w.lastSeen) <= 3*c.cfg.LeaseTTL
}

// noEligibleWorkerLocked reports whether every worker recently in contact
// has already failed this job: re-queuing it then waits for nobody.
func (c *Coordinator) noEligibleWorkerLocked(j *job, now time.Time) bool {
	for id, w := range c.workers {
		if !j.excluded[id] && c.alive(w, now) {
			return false
		}
	}
	return true
}

// finishLocked settles a campaign exactly once — success (err nil) or
// failure — removing any of its jobs still live so the queue cannot keep
// dispatching work nobody will collect.
func (c *Coordinator) finishLocked(camp *campaignRun, err error) {
	if camp.finished {
		return
	}
	camp.finished = true
	camp.err = err
	for id, j := range c.jobs {
		if j.camp != camp {
			continue
		}
		if j.state == jobLeased {
			if w := c.workers[j.worker]; w != nil {
				w.leased--
			}
		}
		delete(c.jobs, id)
	}
	close(camp.done)
}

// join registers (or refreshes) a worker from an explicit JoinRequest.
func (c *Coordinator) join(req JoinRequest) {
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.touchWorkerLocked(req.WorkerID, c.now())
	if req.Addr != "" {
		w.addr = req.Addr
	}
	if req.Slots > 0 {
		w.slots = req.Slots
	}
}

func (c *Coordinator) touchWorkerLocked(id string, now time.Time) *workerState {
	w, ok := c.workers[id]
	if !ok {
		w = &workerState{id: id}
		c.workers[id] = w
	}
	w.lastSeen = now
	return w
}

// WorkerStatus is one worker's row in the fleet /stats view.
type WorkerStatus struct {
	ID        string              `json:"id"`
	Addr      string              `json:"addr,omitempty"`
	Slots     int                 `json:"slots,omitempty"`
	Alive     bool                `json:"alive"`
	IdleMs    int64               `json:"idle_ms"`   // since last contact
	LastSeen  time.Time           `json:"last_seen"` // wall-clock time of last contact
	Leased    int                 `json:"leased"`
	Completed uint64              `json:"completed"`
	Failed    uint64              `json:"failed,omitempty"`
	Expired   uint64              `json:"expired,omitempty"`
	Cache     campaign.CacheStats `json:"cache"`
}

// FleetStats aggregates the whole fleet for GET /stats: galsimd's own
// /stats is per-process, so the coordinator sums worker-reported engine
// counters into one fleet-wide cache view alongside queue depth and
// per-worker health.
type FleetStats struct {
	Workers       int                 `json:"workers"`
	Alive         int                 `json:"alive"`
	UptimeSeconds float64             `json:"uptime_seconds"`
	JobsPending   int                 `json:"jobs_pending"`
	JobsInFlight  int                 `json:"jobs_in_flight"`
	JobsDone      uint64              `json:"jobs_done"`
	LeaseExpiries uint64              `json:"lease_expiries"`
	JobFailures   uint64              `json:"job_failures"`
	Cache         campaign.CacheStats `json:"cache"`
	WorkerList    []WorkerStatus      `json:"worker_list"`
}

// Stats snapshots the fleet.
func (c *Coordinator) Stats() FleetStats {
	now := c.now()
	c.mu.Lock()
	defer c.mu.Unlock()
	s := FleetStats{
		Workers:       len(c.workers),
		UptimeSeconds: now.Sub(c.startedAt).Seconds(),
		JobsDone:      c.jobsDone,
		LeaseExpiries: c.expiries,
		JobFailures:   c.failures,
		WorkerList:    make([]WorkerStatus, 0, len(c.workers)),
	}
	for _, j := range c.jobs {
		if j.state == jobLeased {
			s.JobsInFlight++
		} else {
			s.JobsPending++
		}
	}
	for _, w := range c.workers {
		alive := c.alive(w, now)
		if alive {
			s.Alive++
		}
		s.Cache.Hits += w.cache.Hits
		s.Cache.Misses += w.cache.Misses
		s.Cache.Entries += w.cache.Entries
		s.WorkerList = append(s.WorkerList, WorkerStatus{
			ID:        w.id,
			Addr:      w.addr,
			Slots:     w.slots,
			Alive:     alive,
			IdleMs:    now.Sub(w.lastSeen).Milliseconds(),
			LastSeen:  w.lastSeen,
			Leased:    w.leased,
			Completed: w.completed,
			Failed:    w.failed,
			Expired:   w.expired,
			Cache:     w.cache,
		})
	}
	sort.Slice(s.WorkerList, func(i, k int) bool { return s.WorkerList[i].ID < s.WorkerList[k].ID })
	return s
}

// Resumed is one campaign restored from the job store by Recover. The
// coordinator drives it to completion on its own; Wait is for callers (and
// the chaos tests) that want the merged stats the original RunAll would
// have returned.
type Resumed struct {
	ID        string
	RequestID string
	// Units is the campaign's total result-slot count; PrefilledUnits of
	// them were filled straight from journaled completions and not re-run.
	Units          int
	PrefilledUnits int
	camp           *campaignRun
}

// Wait blocks until the resumed campaign settles and returns its merged
// stats in original spec order — byte-identical to what the pre-crash
// RunAll call would have produced. ctx only bounds the wait; the campaign
// keeps running if ctx expires first.
func (r *Resumed) Wait(ctx context.Context) ([]pipeline.Stats, error) {
	select {
	case <-r.camp.done:
		// finishLocked sets results/err before closing done, so these reads
		// are ordered after every write.
		return r.camp.results, r.camp.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Recover re-enqueues every campaign the job store journaled as enqueued
// but never finished. Call it once, after NewCoordinator and before the
// coordinator serves traffic: journaled completions pre-fill their result
// slots, only the missing units are dispatched, and the coordinator itself
// watches each campaign (expiring stale leases, journaling the finish).
// A nil Config.Store recovers nothing.
func (c *Coordinator) Recover() ([]*Resumed, error) {
	if c.cfg.Store == nil {
		return nil, nil
	}
	recs, err := c.cfg.Store.Recover()
	if err != nil {
		return nil, err
	}
	out := make([]*Resumed, 0, len(recs))
	for _, rec := range recs {
		out = append(out, c.resume(rec))
	}
	return out, nil
}

// resume rebuilds one journaled campaign: slots with journaled results are
// filled without re-running, the rest become queue jobs in the campaign's
// original priority lane.
func (c *Coordinator) resume(rec RecoveredCampaign) *Resumed {
	camp := &campaignRun{
		results:   make([]pipeline.Stats, len(rec.Specs)),
		done:      make(chan struct{}),
		id:        rec.ID,
		pri:       rec.Priority,
		requestID: rec.RequestID,
		total:     len(rec.Specs),
	}
	prefilled := 0
	var pending []specGroup
	c.mu.Lock()
	for _, g := range groupByKey(rec.Specs) {
		if st, ok := rec.Completed[g.key]; ok && st != nil {
			for _, slot := range g.slots {
				camp.results[slot] = *st
			}
			camp.completed += len(g.slots)
			prefilled += len(g.slots)
			continue
		}
		pending = append(pending, g)
	}
	c.enqueueGroupsLocked(camp, pending)
	ckpts := 0
	if len(rec.Checkpoints) > 0 {
		// Attach journaled mid-run checkpoints to the re-created jobs: their
		// first lease resumes from the last durable state instead of zero.
		for _, j := range c.jobs {
			if j.camp != camp {
				continue
			}
			if snap, ok := rec.Checkpoints[j.key]; ok && len(snap) > 0 {
				j.checkpoint = snap
				ckpts++
			}
		}
	}
	if camp.remaining == 0 {
		// Every unit was journaled; the campaign just never got its finish
		// record before the crash.
		c.finishLocked(camp, nil)
	} else {
		c.wakeLocked()
	}
	c.mu.Unlock()
	c.m.campaigns.Inc()
	c.m.recoveredCampaigns.Inc()
	c.m.recoveredJobs.Add(float64(prefilled))
	c.log.Info("campaign resumed from journal", "request_id", rec.RequestID,
		"campaign", rec.ID, "units", len(rec.Specs), "prefilled_units", prefilled,
		"jobs", len(pending), "checkpointed_jobs", ckpts)
	go c.watchResumed(camp)
	return &Resumed{
		ID:             rec.ID,
		RequestID:      rec.RequestID,
		Units:          len(rec.Specs),
		PrefilledUnits: prefilled,
		camp:           camp,
	}
}

// watchResumed stands in for the RunAllProgress wait loop a resumed
// campaign no longer has: it expires stale leases until the campaign
// settles, then journals the finish so the log compacts.
func (c *Coordinator) watchResumed(camp *campaignRun) {
	tick := time.NewTicker(clampTick(c.cfg.LeaseTTL / 2))
	defer tick.Stop()
	for {
		select {
		case <-camp.done:
			c.journalFinish(camp, camp.err)
			if camp.err != nil {
				c.m.campaignsFailed.Inc()
				c.log.Warn("resumed campaign failed", "request_id", camp.requestID,
					"campaign", camp.id, "error", camp.err.Error())
			} else {
				c.log.Info("resumed campaign done", "request_id", camp.requestID, "campaign", camp.id)
			}
			return
		case <-tick.C:
			c.mu.Lock()
			c.expireLocked(c.now())
			c.mu.Unlock()
		}
	}
}
