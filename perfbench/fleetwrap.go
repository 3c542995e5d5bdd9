//go:build !simlongonly

package main

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"galsim/internal/campaign"
	"galsim/internal/cluster"
	"galsim/internal/pipeline"
	"galsim/internal/wal"
)

// The traced fleet run times the stack at its seams, from outside: around
// the service's handler, the coordinator as the service's backend, the
// coordinator's job store, and the worker's HTTP transport. A probe
// records only while on is set, and each wrapper offers exactly the
// optional interfaces of what it wraps, so the stack takes the same code
// paths wrapped or not.

// requestHeader carries a client request's index in the seeded sequence,
// pairing the handler's time with the client's round trip.
const requestHeader = "X-Perfbench-Request"

// timedHandler times the service's handling of each /run request. It
// hands the ResponseWriter through untouched, so the writer's optional
// interfaces (http.Flusher, http.Hijacker, ...) reach the service as
// before.
type timedHandler struct {
	h     http.Handler
	on    *atomic.Bool
	mu    sync.Mutex
	byReq map[int64]time.Duration
}

func (t *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !t.on.Load() || r.URL.Path != "/run" {
		t.h.ServeHTTP(w, r)
		return
	}
	start := time.Now()
	t.h.ServeHTTP(w, r)
	d := time.Since(start)
	if i, err := strconv.ParseInt(r.Header.Get(requestHeader), 10, 64); err == nil {
		t.mu.Lock()
		if t.byReq == nil {
			t.byReq = map[int64]time.Duration{}
		}
		t.byReq[i] = d
		t.mu.Unlock()
	}
}

// take returns the handler times recorded so far, by request index, and
// starts afresh.
func (t *timedHandler) take() map[int64]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	m := t.byReq
	t.byReq = nil
	return m
}

// timedBackend times every batch the service hands its backend.
type timedBackend struct {
	b     campaign.Backend
	on    *atomic.Bool
	calls durations
}

func (t *timedBackend) RunAll(ctx context.Context, specs []campaign.RunSpec) ([]pipeline.Stats, error) {
	defer t.since(time.Now())
	return t.b.RunAll(ctx, specs)
}

func (t *timedBackend) since(start time.Time) {
	if t.on.Load() {
		t.calls.add(time.Since(start))
	}
}

type progressForward struct{ t *timedBackend }

func (f progressForward) RunAllProgress(ctx context.Context, specs []campaign.RunSpec, fn campaign.ProgressFunc) ([]pipeline.Stats, error) {
	defer f.t.since(time.Now())
	return f.t.b.(campaign.ProgressBackend).RunAllProgress(ctx, specs, fn)
}

type warmForward struct{ t *timedBackend }

func (f warmForward) RunAllWarm(ctx context.Context, specs []campaign.RunSpec, warmup uint64, fn campaign.ProgressFunc) ([]pipeline.Stats, error) {
	defer f.t.since(time.Now())
	return f.t.b.(campaign.WarmBackend).RunAllWarm(ctx, specs, warmup, fn)
}

// wrapBackend returns t.b timed by t, offering the optional interfaces
// t.b offers.
func wrapBackend(t *timedBackend) campaign.Backend {
	_, progress := t.b.(campaign.ProgressBackend)
	_, warm := t.b.(campaign.WarmBackend)
	switch {
	case progress && warm:
		return struct {
			*timedBackend
			progressForward
			warmForward
		}{t, progressForward{t}, warmForward{t}}
	case progress:
		return struct {
			*timedBackend
			progressForward
		}{t, progressForward{t}}
	case warm:
		return struct {
			*timedBackend
			warmForward
		}{t, warmForward{t}}
	}
	return t
}

// timedStore times the coordinator's journal writes.
type timedStore struct {
	s                                     cluster.JobStore
	on                                    *atomic.Bool
	enqueue, complete, checkpoint, finish durations
}

func (t *timedStore) since(d *durations, start time.Time) {
	if t.on.Load() {
		d.add(time.Since(start))
	}
}

func (t *timedStore) CampaignEnqueued(id, requestID string, pri campaign.Priority, specs []campaign.RunSpec) error {
	defer t.since(&t.enqueue, time.Now())
	return t.s.CampaignEnqueued(id, requestID, pri, specs)
}

func (t *timedStore) JobCompleted(campaignID, specKey string, stats *pipeline.Stats) error {
	defer t.since(&t.complete, time.Now())
	return t.s.JobCompleted(campaignID, specKey, stats)
}

func (t *timedStore) CampaignFinished(campaignID, errMsg string) error {
	defer t.since(&t.finish, time.Now())
	return t.s.CampaignFinished(campaignID, errMsg)
}

func (t *timedStore) Recover() ([]cluster.RecoveredCampaign, error) { return t.s.Recover() }
func (t *timedStore) Close() error                                  { return t.s.Close() }

type checkpointForward struct{ t *timedStore }

func (f checkpointForward) JobCheckpoint(campaignID, specKey string, snap []byte) error {
	defer f.t.since(&f.t.checkpoint, time.Now())
	return f.t.s.(cluster.CheckpointStore).JobCheckpoint(campaignID, specKey, snap)
}

// walStatser is the journal's counter surface, which the coordinator
// exports as galsim_wal_* gauges when its store offers it.
type walStatser interface{ WALStats() wal.Stats }

// wrapStore returns t.s timed by t, offering the optional interfaces t.s
// offers.
func wrapStore(t *timedStore) cluster.JobStore {
	_, ckpt := t.s.(cluster.CheckpointStore)
	ws, stats := t.s.(walStatser)
	switch {
	case ckpt && stats:
		return struct {
			*timedStore
			checkpointForward
			walStatser
		}{t, checkpointForward{t}, ws}
	case ckpt:
		return struct {
			*timedStore
			checkpointForward
		}{t, checkpointForward{t}}
	case stats:
		return struct {
			*timedStore
			walStatser
		}{t, ws}
	}
	return t
}

// timedTransport times the worker's calls to the coordinator and pairs
// each leased job with its completion: the gap between the two is the
// job's execution on the worker.
type timedTransport struct {
	rt http.RoundTripper
	on *atomic.Bool

	mu       sync.Mutex
	stats    transportStats
	leasedAt map[uint64]time.Time
}

// transportStats is what the worker's transport saw in one window.
type transportStats struct {
	leases                        int
	leaseWait                     time.Duration
	complete, checkpoint, execute []time.Duration
}

func (t *timedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if !t.on.Load() {
		return t.rt.RoundTrip(req)
	}
	path := req.URL.Path
	if path == "/jobs/complete" {
		t.completing(req)
	}
	start := time.Now()
	resp, err := t.rt.RoundTrip(req)
	d := time.Since(start)
	var leased []uint64
	if path == "/jobs/lease" && err == nil {
		resp, leased, err = leasedJobs(resp)
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	switch path {
	case "/jobs/lease":
		t.stats.leases++
		t.stats.leaseWait += d
		if t.leasedAt == nil {
			t.leasedAt = map[uint64]time.Time{}
		}
		for _, id := range leased {
			t.leasedAt[id] = now
		}
	case "/jobs/complete":
		t.stats.complete = append(t.stats.complete, d)
	case "/jobs/checkpoint":
		t.stats.checkpoint = append(t.stats.checkpoint, d)
	}
	return resp, err
}

// completing pairs the job a completion reports with its lease.
func (t *timedTransport) completing(req *http.Request) {
	if req.GetBody == nil {
		return
	}
	body, err := req.GetBody()
	if err != nil {
		return
	}
	defer body.Close()
	head, err := io.ReadAll(io.LimitReader(body, 512))
	if err != nil {
		return
	}
	id, ok := jsonUint(head, "job_id")
	if !ok {
		return
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	if at, ok := t.leasedAt[id]; ok {
		t.stats.execute = append(t.stats.execute, now.Sub(at))
		delete(t.leasedAt, id)
	}
}

// take returns what the transport saw since the last take and starts
// afresh.
func (t *timedTransport) take() transportStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.stats
	t.stats = transportStats{}
	t.leasedAt = nil
	return s
}

// leasedJobs reads the job ID of a lease response (a worker leases one job
// at a time) and hands back a response whose body reads the same bytes.
func leasedJobs(resp *http.Response) (*http.Response, []uint64, error) {
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, nil, err
	}
	resp.Body = io.NopCloser(bytes.NewReader(data))
	if id, ok := jsonUint(data, "id"); ok {
		return resp, []uint64{id}, nil
	}
	return resp, nil, nil
}

// jsonUint reads the unsigned integer after the first `"field":` in data.
// The probes scan rather than decode, so that tracing adds no JSON work
// of its own to the profile.
func jsonUint(data []byte, field string) (uint64, bool) {
	i := bytes.Index(data, []byte(`"`+field+`":`))
	if i < 0 {
		return 0, false
	}
	rest := data[i+len(field)+3:]
	end := 0
	for end < len(rest) && rest[end] >= '0' && rest[end] <= '9' {
		end++
	}
	v, err := strconv.ParseUint(string(rest[:end]), 10, 64)
	return v, err == nil
}

type closeIdler interface{ CloseIdleConnections() }

type requestCanceler interface{ CancelRequest(*http.Request) }

// wrapTransport returns t.rt timed by t, offering the optional interfaces
// t.rt offers.
func wrapTransport(t *timedTransport) http.RoundTripper {
	ci, idle := t.rt.(closeIdler)
	rc, cancel := t.rt.(requestCanceler)
	switch {
	case idle && cancel:
		return struct {
			*timedTransport
			closeIdler
			requestCanceler
		}{t, ci, rc}
	case idle:
		return struct {
			*timedTransport
			closeIdler
		}{t, ci}
	case cancel:
		return struct {
			*timedTransport
			requestCanceler
		}{t, rc}
	}
	return t
}
