package service

import (
	"context"
	"fmt"
	"net/http"

	"galsim/internal/campaign"
	"galsim/internal/telemetry"
	"galsim/internal/timeline"
)

// maxTrackedSweeps bounds the progress tracker: once the table is full the
// oldest *settled* sweep is evicted first, so an unauthenticated client
// hammering /sweep cannot grow server memory through the tracker — and
// cannot push a still-running sweep's progress handle out of the API while
// its owner is polling it. Only when every tracked sweep is still running
// does the oldest running one go.
const maxTrackedSweeps = 256

// sweepStatus is one tracked sweep as served by GET /sweeps and
// GET /sweeps/{id}/progress. Progress is updated live while the sweep runs
// (one snapshot per finished unit), so a client can poll mid-flight.
type sweepStatus struct {
	ID    string `json:"id"`
	Units int    `json:"units"`
	// State is "running", "done" or "failed".
	State    string            `json:"state"`
	Progress campaign.Progress `json:"progress"`
	Error    string            `json:"error,omitempty"`
	// RequestID and TraceID echo the sweep's correlation identity (see
	// telemetry.Instrument): the IDs a client can grep fleet logs by and
	// fetch the distributed trace with (GET /sweeps/{id}/trace).
	RequestID string `json:"request_id,omitempty"`
	TraceID   string `json:"trace_id,omitempty"`
}

// trackSweep registers a new sweep and returns its status handle, capturing
// the request's correlation IDs from ctx. The returned pointer must only be
// mutated under sweepsMu.
func (s *Server) trackSweep(ctx context.Context, units int) *sweepStatus {
	s.sweepsMu.Lock()
	defer s.sweepsMu.Unlock()
	s.sweepNext++
	st := &sweepStatus{
		ID:        fmt.Sprintf("s%d", s.sweepNext),
		Units:     units,
		State:     "running",
		Progress:  campaign.Progress{Total: units},
		RequestID: telemetry.RequestID(ctx),
		TraceID:   telemetry.Trace(ctx).TraceID,
	}
	s.sweeps[st.ID] = st
	s.sweepIDs = append(s.sweepIDs, st.ID)
	if len(s.sweepIDs) > maxTrackedSweeps {
		s.evictSweepLocked()
	}
	return st
}

// evictSweepLocked drops one sweep from the tracker: the oldest settled
// ("done"/"failed") sweep if any, else the oldest running one (the table
// must stay bounded even when a client opens hundreds of concurrent
// sweeps). sweepsMu must be held.
func (s *Server) evictSweepLocked() {
	victim := -1
	for i, id := range s.sweepIDs {
		if s.sweeps[id].State != "running" {
			victim = i
			break
		}
	}
	if victim < 0 {
		victim = 0
	}
	delete(s.sweeps, s.sweepIDs[victim])
	s.sweepIDs = append(s.sweepIDs[:victim], s.sweepIDs[victim+1:]...)
}

// sweepProgress records one progress snapshot for st.
func (s *Server) sweepProgress(st *sweepStatus, p campaign.Progress) {
	s.sweepsMu.Lock()
	st.Progress = p
	s.sweepsMu.Unlock()
}

// sweepDone marks st terminal. A sweep evicted from the tracker while still
// running settles harmlessly: the handle stays valid, it is just no longer
// reachable through the API.
func (s *Server) sweepDone(st *sweepStatus, err error) {
	s.sweepsMu.Lock()
	if err != nil {
		st.State = "failed"
		st.Error = err.Error()
	} else {
		st.State = "done"
	}
	s.sweepsMu.Unlock()
}

// SweepsResponse is the GET /sweeps payload: tracked sweeps in submission
// order, oldest first.
type SweepsResponse struct {
	Sweeps []sweepStatus `json:"sweeps"`
}

func (s *Server) handleSweeps(w http.ResponseWriter, r *http.Request) {
	s.sweepsMu.Lock()
	resp := SweepsResponse{Sweeps: make([]sweepStatus, 0, len(s.sweepIDs))}
	for _, id := range s.sweepIDs {
		resp.Sweeps = append(resp.Sweeps, *s.sweeps[id])
	}
	s.sweepsMu.Unlock()
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleSweepProgress(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.sweepsMu.Lock()
	st, ok := s.sweeps[id]
	var snapshot sweepStatus
	if ok {
		snapshot = *st
	}
	s.sweepsMu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound,
			fmt.Errorf("unknown sweep %q (the tracker keeps the most recent %d sweeps)", id, maxTrackedSweeps))
		return
	}
	writeJSON(w, http.StatusOK, snapshot)
}

// handleSweepTrace serves one sweep's distributed trace as Chrome
// trace-event JSON: the coordinator's campaign/lease/merge spans plus every
// worker's execute/simulate spans and in-sim windows, all sharing the
// sweep's trace ID. Requires a span collector (fleet front ends install
// one) and a sweep that ran with tracing on.
func (s *Server) handleSweepTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.sweepsMu.Lock()
	st, ok := s.sweeps[id]
	var traceID string
	if ok {
		traceID = st.TraceID
	}
	s.sweepsMu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound,
			fmt.Errorf("unknown sweep %q (the tracker keeps the most recent %d sweeps)", id, maxTrackedSweeps))
		return
	}
	if s.Spans == nil {
		writeError(w, http.StatusNotFound,
			fmt.Errorf("span tracing is not enabled on this server (run a fleet front end, e.g. galsim-fleet)"))
		return
	}
	if traceID == "" {
		writeError(w, http.StatusNotFound, fmt.Errorf("sweep %q has no trace ID", id))
		return
	}
	spans := s.Spans.ForTrace(traceID)
	if len(spans) == 0 {
		writeError(w, http.StatusNotFound,
			fmt.Errorf("no spans recorded for sweep %q (trace %s); the collector keeps only the most recent spans", id, traceID))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := timeline.WriteSpansTrace(w, spans); err != nil {
		// Headers are gone; all we can do is cut the stream.
		return
	}
}
