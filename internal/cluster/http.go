package cluster

import (
	"fmt"
	"net/http"
	"strconv"
	"time"

	"galsim/internal/httpjson"
	"galsim/internal/snapshot"
)

// maxBodyBytes bounds fleet-endpoint request bodies. Completion batches
// carry full Stats structs and checkpoints a snapshot of a few hundred
// kilobytes, but even a generous batch or snapshot stays far under this.
const maxBodyBytes = 8 << 20

// maxLeaseWait caps how long one lease request may long-poll; workers
// simply poll again.
const maxLeaseWait = 30 * time.Second

// Register mounts the coordinator's fleet endpoints on mux:
//
//	POST /join             explicit worker registration
//	POST /jobs/lease       lease up to N jobs (long-polls while idle)
//	POST /jobs/complete    post finished jobs (streamed per job)
//	POST /jobs/checkpoint  post a leased job's mid-run snapshot: the envelope
//	                       bytes as an application/octet-stream body, with
//	                       worker_id, job_id and committed in the query
//	GET  /stats            aggregated fleet stats (see FleetStats)
//	GET  /metrics          Prometheus text exposition of the fleet metrics
//
// The paths are chosen so a service.Server can be mounted beneath at "/"
// (as cmd/galsim-fleet does): ServeMux prefers the more specific pattern,
// so the fleet-wide /stats shadows the service's per-process one while
// /run, /sweep, /benchmarks etc. fall through. (Point Config.Metrics at the
// service's registry so the shadowing /metrics page covers both.)
// When Config.Admission is set, the three POST endpoints require a tenant
// API key (workers send Worker.APIKey) — an open fleet port would let
// anyone execute jobs or inject results.
func (c *Coordinator) Register(mux *http.ServeMux) {
	mux.HandleFunc("POST /join", c.admitted(c.handleJoin))
	mux.HandleFunc("POST /jobs/lease", c.admitted(c.handleLease))
	mux.HandleFunc("POST /jobs/complete", c.admitted(c.handleComplete))
	mux.HandleFunc("POST /jobs/checkpoint", c.admitted(c.handleCheckpoint))
	mux.HandleFunc("GET /stats", c.handleStats)
	mux.Handle("GET /metrics", c.metrics.Handler())
}

// admitted wraps a fleet handler behind the admission gate (identity when
// no gate is configured).
func (c *Coordinator) admitted(h http.HandlerFunc) http.HandlerFunc {
	if c.cfg.Admission == nil {
		return h
	}
	return func(w http.ResponseWriter, r *http.Request) {
		if _, ok := c.cfg.Admission.Admit(w, r); !ok {
			return
		}
		h(w, r)
	}
}

// Handler returns a standalone handler serving only the fleet endpoints.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	c.Register(mux)
	return mux
}

func (c *Coordinator) handleJoin(w http.ResponseWriter, r *http.Request) {
	var req JoinRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.WorkerID == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("worker_id is required"))
		return
	}
	c.join(req)
	writeJSON(w, http.StatusOK, JoinResponse{LeaseMs: c.cfg.LeaseTTL.Milliseconds()})
}

func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	var req LeaseRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.WorkerID == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("worker_id is required"))
		return
	}
	slots := req.Slots
	if slots <= 0 {
		slots = 1
	}
	wait := time.Duration(req.WaitMs) * time.Millisecond
	if wait > maxLeaseWait {
		wait = maxLeaseWait
	}
	// Long-poll: wall-clock here, the injectable coordinator clock only for
	// lease deadlines (fake-clock tests drive tryLease directly).
	deadline := time.Now().Add(wait)
	for {
		jobs, wake := c.tryLease(req.WorkerID, slots, req.Cache)
		if len(jobs) > 0 || !time.Now().Before(deadline) {
			writeJSON(w, http.StatusOK, LeaseResponse{
				Jobs:    jobs,
				LeaseMs: c.cfg.LeaseTTL.Milliseconds(),
			})
			return
		}
		timer := time.NewTimer(time.Until(deadline))
		select {
		case <-wake:
		case <-timer.C:
		case <-r.Context().Done():
			timer.Stop()
			return // worker gone; nothing was leased
		}
		timer.Stop()
	}
}

func (c *Coordinator) handleComplete(w http.ResponseWriter, r *http.Request) {
	var req CompleteRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.WorkerID == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("worker_id is required"))
		return
	}
	for _, res := range req.Results {
		if err := res.validate(); err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
	}
	accepted := c.complete(req.WorkerID, req.Results, req.Cache)
	c.addSpans(req.Spans)
	writeJSON(w, http.StatusOK, CompleteResponse{Accepted: accepted})
}

// handleCheckpoint takes one snapshot envelope as the raw request body and
// the job it belongs to from the query string (worker_id, job_id,
// committed).
func (c *Coordinator) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	req := CheckpointRequest{WorkerID: q.Get("worker_id")}
	if req.WorkerID == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("worker_id is required"))
		return
	}
	var err error
	if req.JobID, err = strconv.ParseUint(q.Get("job_id"), 10, 64); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("job_id: %w", err))
		return
	}
	if req.Committed, err = strconv.ParseUint(q.Get("committed"), 10, 64); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("committed: %w", err))
		return
	}
	var ok bool
	if req.Snapshot, ok = httpjson.ReadBody(w, r, maxBodyBytes); !ok {
		return
	}
	// Check the envelope before anything is stored or journaled: a corrupt
	// checkpoint fails typed here, never a partial restore later. The body
	// is left to the worker that resumes from it, which decodes it anyway.
	if err := snapshot.Check(req.Snapshot); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("checkpoint for job %d rejected: %w", req.JobID, err))
		return
	}
	writeJSON(w, http.StatusOK, CheckpointResponse{Accepted: c.checkpoint(req)})
}

func (c *Coordinator) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, c.Stats())
}

func writeJSON(w http.ResponseWriter, status int, v any) { httpjson.Write(w, status, v) }

func writeError(w http.ResponseWriter, status int, err error) { httpjson.Error(w, status, err) }

func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	return httpjson.Decode(w, r, v, maxBodyBytes)
}
