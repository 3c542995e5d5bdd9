package cluster

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"sync"
	"time"

	"galsim/internal/campaign"
	"galsim/internal/httpjson"
	"galsim/internal/snapshot"
	"galsim/internal/telemetry"
	"galsim/internal/timeline"
)

// Worker pulls jobs from a Coordinator and executes them on a local
// campaign engine. galsimd runs one (sharing the engine with its own HTTP
// handlers, so fleet jobs and direct requests hit one result cache) when
// started with -join; cmd/galsim-fleet can also spawn in-process workers
// for single-machine fleets.
type Worker struct {
	// Coordinator is the coordinator's base URL, e.g. "http://host:9090".
	Coordinator string
	// ID names this worker to the fleet; empty generates "host-pid-xxxx".
	ID string
	// Addr is this worker's own HTTP address, if it serves one;
	// informational, shown in fleet stats.
	Addr string
	// Engine executes the jobs (nil creates a GOMAXPROCS-wide engine).
	Engine *campaign.Engine
	// Slots is how many jobs run concurrently (default Engine.Workers()).
	Slots int
	// PollInterval is the pause after an idle long-poll (default 500ms; the
	// lease long-poll provides the real pacing). It also seeds the error
	// backoff: failed lease/complete calls retry on a jittered exponential
	// schedule from PollInterval up to maxBackoff (15s), resetting on
	// success, so a briefly-down coordinator sees a fan-in of retries
	// instead of a fixed-cadence stampede from every worker at once.
	PollInterval time.Duration
	// DrainTimeout, when positive, makes shutdown graceful: after Run's ctx
	// is cancelled the worker stops leasing but finishes and reports the
	// jobs it already holds, for at most this long. Zero preserves the
	// abrupt behavior — in-flight jobs are abandoned to their lease TTL.
	DrainTimeout time.Duration
	// APIKey authenticates this worker to an admission-gated coordinator
	// (sent as "Authorization: Bearer <key>"); empty sends no credential.
	APIKey string
	// Client issues the HTTP calls (nil uses a 2-minute-timeout client —
	// comfortably above the lease long-poll, far below any lease TTL that
	// would matter).
	Client *http.Client
	// Log receives structured progress and retry diagnostics; nil uses
	// slog.Default(). Job lifecycle lines carry the coordinator-assigned
	// request_id, matching the coordinator's own campaign logs.
	Log *slog.Logger
	// Metrics, when non-nil, receives the worker's job execution metrics
	// (galsim_worker_*). galsimd passes its service registry so worker and
	// service metrics share one /metrics page.
	Metrics *telemetry.Registry
	// TimelineEvents sizes the flight-recorder ring attached to jobs that
	// arrive with a trace context (see Job.TraceParent): the last N
	// microarchitecture events of each traced simulation are converted to
	// spans and shipped back with the completion. 0 selects a small default;
	// negative disables in-sim spans (execute/simulate spans still ship).
	TimelineEvents int
	// CheckpointEvery, when positive, makes long jobs crash-resumable: every
	// N committed instructions the worker encodes the job's full execution
	// state once and posts the snapshot envelope as the raw body of POST
	// /jobs/checkpoint, and a job that arrives carrying a previous holder's
	// checkpoint resumes from it instead of re-simulating the prefix.
	// Results are byte-identical either way (the snapshot differential gate
	// proves it), traced or not. Zero disables checkpointing.
	CheckpointEvery uint64

	m struct {
		jobs       telemetry.Counter // label: result (ok|error)
		jobSeconds telemetry.Histogram
		leaseErrs  telemetry.Counter
		drained    telemetry.Counter // jobs completed during graceful drain
	}
	metricsOn bool

	// randFloat overrides the backoff jitter source (tests); nil uses
	// math/rand/v2.
	randFloat func() float64
}

// maxBackoff caps a worker's error-retry delay.
const maxBackoff = 15 * time.Second

// newBackoff builds this worker's error-retry schedule.
func (w *Worker) newBackoff() backoff {
	return backoff{base: w.pollInterval(), cap: maxBackoff, rand: w.randFloat}
}

func (w *Worker) log() *slog.Logger {
	if w.Log != nil {
		return w.Log
	}
	return slog.Default()
}

// leaseWaitMs is how long each lease request long-polls on the coordinator.
const leaseWaitMs = 2000

// Run joins the coordinator and pulls jobs until ctx is cancelled,
// streaming each completion back as the job finishes. A worker dying
// mid-job (ctx cancelled, process killed) simply never completes it; the
// coordinator's lease TTL re-queues the job for the surviving fleet.
func (w *Worker) Run(ctx context.Context) error {
	if w.Engine == nil {
		w.Engine = campaign.NewEngine(0)
	}
	if w.ID == "" {
		w.ID = defaultWorkerID()
	}
	if w.Client == nil {
		w.Client = &http.Client{Timeout: 2 * time.Minute}
	}
	slots := w.Slots
	if slots <= 0 {
		slots = w.Engine.Workers()
	}
	if w.Metrics != nil {
		w.m.jobs = w.Metrics.Counter("galsim_worker_jobs_total",
			"Fleet jobs executed by this worker, by result.", "result")
		w.m.jobSeconds = w.Metrics.Histogram("galsim_worker_job_seconds",
			"Fleet job execution time on this worker in seconds.", nil)
		w.m.leaseErrs = w.Metrics.Counter("galsim_worker_lease_errors_total",
			"Failed lease calls to the coordinator.")
		w.m.drained = w.Metrics.Counter("galsim_worker_jobs_drained_total",
			"Jobs finished and reported during a graceful shutdown drain.")
		w.metricsOn = true
	}
	if err := w.join(ctx, slots); err != nil {
		return fmt.Errorf("cluster: worker %s joining %s: %w", w.ID, w.Coordinator, err)
	}
	w.log().Info("worker joined", "worker", w.ID, "coordinator", w.Coordinator, "slots", slots)

	// Two lifetimes: leasing stops the moment ctx is cancelled, but with a
	// DrainTimeout the jobs already held get a second context that outlives
	// ctx by up to that long — finished work is reported instead of thrown
	// away to a lease expiry. DrainTimeout zero collapses both to ctx, the
	// original kill-style behavior.
	jobCtx := ctx
	drained := make(chan struct{})
	if w.DrainTimeout > 0 {
		var cancel context.CancelFunc
		jobCtx, cancel = context.WithCancel(context.WithoutCancel(ctx))
		go func() {
			defer cancel()
			select {
			case <-drained:
				return
			case <-ctx.Done():
			}
			w.log().Info("draining in-flight jobs", "worker", w.ID,
				"timeout", w.DrainTimeout.String())
			t := time.NewTimer(w.DrainTimeout)
			defer t.Stop()
			select {
			case <-drained:
			case <-t.C:
				w.log().Warn("drain timeout; abandoning remaining jobs", "worker", w.ID)
			}
		}()
	}
	var wg sync.WaitGroup
	// One puller per slot: each leases a single job, runs it, and posts the
	// completion before leasing again — natural backpressure, and a lost
	// worker forfeits at most `slots` leases.
	for i := 0; i < slots; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.pull(ctx, jobCtx)
		}()
	}
	wg.Wait()
	close(drained)
	return ctx.Err()
}

// pull is one slot's lease→run→complete loop. leaseCtx bounds leasing (new
// work stops with it); jobCtx bounds execution and completion of jobs
// already held, and outlives leaseCtx during a graceful drain.
func (w *Worker) pull(leaseCtx, jobCtx context.Context) {
	bo := w.newBackoff()
	// rec is this slot's flight recorder (nil when TimelineEvents disables
	// in-sim spans), reset for each traced job: the slot runs one job at a
	// time and has rendered the job's spans before it leases the next.
	rec := w.flightRecorder()
	for leaseCtx.Err() == nil {
		lease, err := w.lease(leaseCtx)
		if err != nil {
			if leaseCtx.Err() != nil {
				return
			}
			if w.metricsOn {
				w.m.leaseErrs.Inc()
			}
			delay := bo.next()
			w.log().Warn("lease failed", "worker", w.ID, "error", err,
				"retry_in_ms", delay.Milliseconds())
			sleepCtx(leaseCtx, delay)
			continue
		}
		bo.reset()
		if len(lease.Jobs) == 0 {
			// The long-poll already waited; a short pause keeps a
			// misconfigured (wait-free) coordinator from being hammered.
			sleepCtx(leaseCtx, w.pollInterval())
			continue
		}
		for _, jb := range lease.Jobs {
			w.log().Info("job start", "worker", w.ID, "job_id", jb.ID,
				"request_id", jb.RequestID, "benchmark", jb.Spec.Benchmark)
			start := time.Now()
			var opts campaign.ExecOpts
			if w.CheckpointEvery > 0 {
				opts = w.checkpointOpts(jobCtx, jb)
			}
			trID, parentSp, traced := timeline.ParseTraceParent(jb.TraceParent)
			if traced && rec != nil {
				rec.Reset()
				opts.Tap.Recorder = rec
			}
			st, hit, err := w.Engine.RunOpts(jobCtx, jb.Spec, opts)
			end := time.Now()
			dur := end.Sub(start)
			if jobCtx.Err() != nil {
				// Dying mid-job: report nothing and let the lease expire, so
				// the job is re-run whole on a live worker.
				return
			}
			var spans []timeline.Span
			if traced {
				spans = w.jobSpans(jb, trID, parentSp, start, end, hit, err, opts.Tap.Recorder)
			}
			draining := leaseCtx.Err() != nil
			res := JobResult{JobID: jb.ID}
			result := "ok"
			if err != nil {
				res.Error = err.Error()
				result = "error"
			} else {
				res.Stats = &st
			}
			if w.metricsOn {
				w.m.jobs.Inc(result)
				w.m.jobSeconds.Observe(dur.Seconds())
				if draining {
					w.m.drained.Inc()
				}
			}
			w.log().Info("job done", "worker", w.ID, "job_id", jb.ID,
				"request_id", jb.RequestID, "result", result,
				"duration_ms", dur.Milliseconds(), "draining", draining)
			if cerr := w.complete(jobCtx, res, spans, jb.TraceParent); cerr != nil {
				if jobCtx.Err() != nil {
					return
				}
				w.log().Warn("completing job failed", "worker", w.ID,
					"job_id", jb.ID, "request_id", jb.RequestID, "error", cerr)
			}
		}
	}
}

func (w *Worker) pollInterval() time.Duration {
	if w.PollInterval > 0 {
		return w.PollInterval
	}
	return 500 * time.Millisecond
}

func (w *Worker) join(ctx context.Context, slots int) error {
	var resp JoinResponse
	return w.post(ctx, "/join", JoinRequest{WorkerID: w.ID, Addr: w.Addr, Slots: slots}, &resp)
}

func (w *Worker) lease(ctx context.Context) (LeaseResponse, error) {
	var resp LeaseResponse
	err := w.post(ctx, "/jobs/lease", LeaseRequest{
		WorkerID: w.ID,
		Slots:    1,
		WaitMs:   leaseWaitMs,
		Cache:    w.Engine.Stats(),
	}, &resp)
	return resp, err
}

// checkpointOpts builds the execution options of one job under the
// checkpoint regime: resume from the job's attached checkpoint when it has a
// valid one (a checkpoint whose envelope or head fails its typed check is
// discarded for a cold run; a state that then fails to decode fails the run
// — never a partial restore), and post a fresh checkpoint to the
// coordinator every CheckpointEvery committed instructions. A rejected post
// (this worker lost the lease) or an unreachable coordinator never fails
// the run: the completion retry path settles who wins.
func (w *Worker) checkpointOpts(ctx context.Context, jb Job) campaign.ExecOpts {
	opts := campaign.ExecOpts{CheckpointEvery: w.CheckpointEvery}
	if len(jb.Checkpoint) > 0 {
		snap, err := snapshot.Parse(jb.Checkpoint)
		if err != nil {
			w.log().Warn("job checkpoint unusable; running cold", "worker", w.ID,
				"job_id", jb.ID, "request_id", jb.RequestID, "error", err)
		} else {
			opts.Resume = snap
			w.log().Info("resuming from checkpoint", "worker", w.ID, "job_id", jb.ID,
				"request_id", jb.RequestID, "committed", snap.Committed)
		}
	}
	opts.OnSnapshot = func(sn *snapshot.Snapshot) {
		blob, err := sn.EncodeBytes()
		if err != nil {
			w.log().Warn("encoding checkpoint failed", "worker", w.ID, "job_id", jb.ID, "error", err)
			return
		}
		resp, err := w.postCheckpoint(ctx, CheckpointRequest{
			WorkerID:  w.ID,
			JobID:     jb.ID,
			Committed: sn.Committed,
			Snapshot:  blob,
		})
		switch {
		case err != nil:
			w.log().Warn("posting checkpoint failed", "worker", w.ID, "job_id", jb.ID,
				"request_id", jb.RequestID, "error", err)
		case !resp.Accepted:
			w.log().Warn("checkpoint rejected: lease no longer held", "worker", w.ID,
				"job_id", jb.ID, "request_id", jb.RequestID)
		default:
			w.log().Debug("checkpoint posted", "worker", w.ID, "job_id", jb.ID,
				"request_id", jb.RequestID, "committed", sn.Committed)
		}
	}
	return opts
}

// maxSimSpans bounds how many in-sim windows one traced job ships back:
// plenty for the interesting tail (the flight ring already keeps only the
// last events) while keeping completion bodies small.
const maxSimSpans = 256

// flightRecorder returns a timeline ring for traced jobs, or nil when
// TimelineEvents disables in-sim spans.
func (w *Worker) flightRecorder() *timeline.Recorder {
	if w.TimelineEvents < 0 {
		return nil
	}
	events := w.TimelineEvents
	if events == 0 {
		// 1024 events = 24KB: the ring stays L1-resident, so steady
		// state recording does not evict the simulator's working set.
		// SimSpans folds at most maxSimSpans windows into the trace
		// anyway, so a deeper default ring buys nothing.
		events = 1024
	}
	return timeline.NewRecorder(timeline.Options{MaxEvents: events, Flight: true})
}

// jobSpans renders the worker's side of one traced job's trace: an
// "execute" span under the job's lease span, a "simulate" or "cache-hit"
// child, and — on an actual simulation — the flight recorder's
// stall/squash/backpressure windows rebased into the simulate window as
// grandchild spans.
func (w *Worker) jobSpans(jb Job, traceID, parentSpan string, start, end time.Time, hit bool, err error, rec *timeline.Recorder) []timeline.Span {
	service := "worker " + w.ID
	exec := timeline.Span{
		TraceID:     traceID,
		SpanID:      timeline.NewSpanID(),
		ParentID:    parentSpan,
		Name:        "execute",
		Service:     service,
		StartUnixNs: start.UnixNano(),
		EndUnixNs:   end.UnixNano(),
		Attrs: map[string]string{
			"job_id":    fmt.Sprintf("%d", jb.ID),
			"benchmark": jb.Spec.Benchmark,
		},
	}
	if err != nil {
		exec.Attrs["error"] = err.Error()
		return []timeline.Span{exec}
	}
	childName := "simulate"
	if hit {
		childName = "cache-hit"
	}
	child := timeline.Span{
		TraceID:     traceID,
		SpanID:      timeline.NewSpanID(),
		ParentID:    exec.SpanID,
		Name:        childName,
		Service:     service,
		StartUnixNs: start.UnixNano(),
		EndUnixNs:   end.UnixNano(),
	}
	spans := []timeline.Span{exec, child}
	if !hit && rec != nil {
		spans = append(spans, rec.SimSpans(traceID, child.SpanID, service,
			start.UnixNano(), end.UnixNano(), maxSimSpans)...)
	}
	return spans
}

// complete posts one finished job, retrying a few times so a briefly
// unreachable coordinator does not cost a finished simulation; if it stays
// unreachable the lease expires and the job reruns elsewhere.
func (w *Worker) complete(ctx context.Context, res JobResult, spans []timeline.Span, traceparent string) error {
	req := CompleteRequest{WorkerID: w.ID, Results: []JobResult{res}, Cache: w.Engine.Stats(), Spans: spans}
	bo := w.newBackoff()
	var err error
	for attempt := 0; attempt < 3; attempt++ {
		if attempt > 0 {
			sleepCtx(ctx, bo.next())
			if ctx.Err() != nil {
				return ctx.Err()
			}
		}
		var resp CompleteResponse
		if err = w.postTrace(ctx, "/jobs/complete", traceparent, req, &resp); err == nil {
			return nil
		}
	}
	return err
}

func (w *Worker) post(ctx context.Context, path string, in, out any) error {
	return w.postTrace(ctx, path, "", in, out)
}

// postTrace is post with an optional W3C traceparent header, so traced job
// completions correlate in the coordinator's access logs.
func (w *Worker) postTrace(ctx context.Context, path, traceparent string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return fmt.Errorf("encoding %s request: %w", path, err)
	}
	req, err := w.newRequest(ctx, path, body)
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	if traceparent != "" {
		req.Header.Set(telemetry.TraceParentHeader, traceparent)
	}
	return w.do(path, req, out)
}

// postCheckpoint posts one checkpoint in its wire form: the snapshot
// envelope as the raw body, the rest as query parameters.
func (w *Worker) postCheckpoint(ctx context.Context, ck CheckpointRequest) (CheckpointResponse, error) {
	const path = "/jobs/checkpoint"
	q := url.Values{
		"worker_id": {ck.WorkerID},
		"job_id":    {strconv.FormatUint(ck.JobID, 10)},
		"committed": {strconv.FormatUint(ck.Committed, 10)},
	}
	var resp CheckpointResponse
	req, err := w.newRequest(ctx, path+"?"+q.Encode(), ck.Snapshot)
	if err != nil {
		return resp, err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	return resp, w.do(path, req, &resp)
}

// newRequest builds an authenticated POST of body to the coordinator.
func (w *Worker) newRequest(ctx context.Context, target string, body []byte) (*http.Request, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.Coordinator+target, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if w.APIKey != "" {
		req.Header.Set("Authorization", "Bearer "+w.APIKey)
	}
	return req, nil
}

// do sends req and strictly decodes the coordinator's JSON reply into out;
// path names the endpoint in errors.
func (w *Worker) do(path string, req *http.Request, out any) error {
	resp, err := w.Client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxBodyBytes))
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		var apiErr struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(data, &apiErr) == nil && apiErr.Error != "" {
			return fmt.Errorf("%s: %s (HTTP %d)", path, apiErr.Error, resp.StatusCode)
		}
		return fmt.Errorf("%s: HTTP %d", path, resp.StatusCode)
	}
	// Strict decoding end to end: a coordinator speaking a newer schema
	// (say, a job field this worker would silently drop) must fail loudly
	// here, not simulate the wrong configuration.
	if err := httpjson.DecodeStrict(bytes.NewReader(data), out); err != nil {
		return fmt.Errorf("%s: decoding response: %w", path, err)
	}
	return nil
}

func sleepCtx(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

func defaultWorkerID() string {
	host, err := os.Hostname()
	if err != nil || host == "" {
		host = "worker"
	}
	var suffix [2]byte
	rand.Read(suffix[:]) //nolint:errcheck // crypto/rand never fails on supported platforms
	return fmt.Sprintf("%s-%d-%s", host, os.Getpid(), hex.EncodeToString(suffix[:]))
}
