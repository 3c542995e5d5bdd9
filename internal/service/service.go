// Package service implements the galsimd HTTP API: a long-running
// simulation server that executes single runs, declarative sweeps, and the
// paper's experiment drivers on a shared campaign engine, so concurrent
// clients asking for overlapping work are served from one content-addressed
// result cache.
//
// Endpoints:
//
//	POST /run                 one RunSpec -> summary (built-in benchmark,
//	                          inline custom profile, or uploaded profile name);
//	                          ?timeline=1 embeds a Perfetto-loadable event
//	                          timeline of the simulation
//	GET  /sweeps/{id}/trace   one sweep's distributed trace as Chrome
//	                          trace-event JSON (fleet front ends only)
//	POST /sweep               one Sweep -> aggregated unit results
//	GET  /experiments/{fig}   regenerate a paper artifact (table1, 5..13,
//	                          phase, ablations, dvfs); ?format=json|text|csv
//	GET  /benchmarks          registered workload names
//	GET  /workloads           benchmark profiles (mix fractions, footprints)
//	                          plus uploaded custom profiles
//	POST /workloads           upload a custom (possibly phased) profile;
//	                          later /run requests may reference it by name
//	GET  /machines            built-in machine specs (base, gals) plus
//	                          uploaded custom machines, with content digests
//	POST /machines            upload a machine spec (a clock-domain
//	                          topology); later /run and /sweep requests may
//	                          reference it by name
//	GET  /sweeps              recent sweeps with their progress snapshots
//	GET  /sweeps/{id}/progress  one sweep's live progress (units completed/
//	                          failed, cache hits)
//	GET  /stats               cache hit/miss/entry counters
//	GET  /metrics             Prometheus text exposition (HTTP request
//	                          counters and latencies, cache and registry
//	                          gauges; plus worker metrics when galsimd joins
//	                          a fleet)
//	GET  /healthz             liveness probe
//
// Every request is wrapped in structured access logging (log/slog) carrying
// a request ID: adopted from the X-Request-Id header when present, generated
// otherwise, and echoed back on the response.
package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"

	"galsim/internal/admission"
	"galsim/internal/campaign"
	"galsim/internal/experiments"
	"galsim/internal/httpjson"
	"galsim/internal/machine"
	"galsim/internal/pipeline"
	"galsim/internal/telemetry"
	"galsim/internal/timeline"
	"galsim/internal/workload"
)

// maxBodyBytes bounds request bodies; specs and sweeps are small.
const maxBodyBytes = 1 << 20

// Server is the galsimd HTTP handler. Create with New.
type Server struct {
	engine *campaign.Engine
	mux    *http.ServeMux

	// Backend, when set, executes /run and /sweep batches instead of the
	// local engine — e.g. a cluster coordinator fanning the units out over
	// a worker fleet (see internal/cluster and cmd/galsim-fleet). The
	// engine keeps serving /experiments and the per-process /stats. Set
	// before the server starts handling requests.
	Backend campaign.Backend

	// MaxSweepUnits rejects sweeps expanding beyond this many units
	// (0 = unlimited). Protects a shared server from accidental
	// full-cross-product requests.
	MaxSweepUnits int

	// Admission, when set, gates POST /run and POST /sweep behind
	// per-tenant API keys, rate limits, and queued-unit quotas (see
	// internal/admission). nil leaves the API open, the pre-multi-tenant
	// behavior. Set before the server starts handling requests.
	Admission *admission.Controller

	// Spans, when set, backs GET /sweeps/{id}/trace: the collector the
	// fleet coordinator records campaign/lease spans into and folds worker
	// spans back into (cmd/galsim-fleet shares one collector between both).
	// Set before the server starts handling requests.
	Spans *timeline.SpanCollector

	// Log receives the server's structured access logs; nil uses
	// slog.Default(). Set before the server starts handling requests.
	Log *slog.Logger

	// metrics holds the server's Prometheus registry; the instrumented
	// handler is built on first request so Log can be set after New.
	metrics  *telemetry.Registry
	initOnce sync.Once
	handler  http.Handler

	// sweeps tracks recent /sweep requests for the progress API.
	sweepsMu  sync.Mutex
	sweeps    map[string]*sweepStatus
	sweepIDs  []string // insertion order, for bounded eviction
	sweepNext int

	// custom and machines are the upload registries: name -> validated
	// spec.
	custom   *registry[workload.ProfileSpec]
	machines *registry[machine.Spec]
}

// New builds a server around the given engine (nil creates a fresh
// GOMAXPROCS-wide one).
func New(engine *campaign.Engine) *Server {
	if engine == nil {
		engine = campaign.NewEngine(0)
	}
	s := &Server{engine: engine, mux: http.NewServeMux(), MaxSweepUnits: 4096,
		metrics: telemetry.NewRegistry(), sweeps: map[string]*sweepStatus{},
		custom: newRegistry[workload.ProfileSpec]("workload"), machines: newRegistry[machine.Spec]("machine")}
	s.mux.HandleFunc("POST /run", s.handleRun)
	s.mux.HandleFunc("POST /sweep", s.handleSweep)
	s.mux.HandleFunc("GET /sweeps", s.handleSweeps)
	s.mux.HandleFunc("GET /sweeps/{id}/progress", s.handleSweepProgress)
	s.mux.HandleFunc("GET /sweeps/{id}/trace", s.handleSweepTrace)
	s.mux.HandleFunc("GET /experiments/{figure}", s.handleExperiment)
	s.mux.HandleFunc("GET /benchmarks", s.handleBenchmarks)
	s.mux.HandleFunc("GET /workloads", s.handleWorkloads)
	s.mux.HandleFunc("POST /workloads", s.handleUploadWorkload)
	s.mux.HandleFunc("GET /machines", s.handleMachines)
	s.mux.HandleFunc("POST /machines", s.handleUploadMachine)
	s.mux.HandleFunc("GET /stats", s.handleStats)
	s.mux.Handle("GET /metrics", s.metrics.Handler())
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.registerGauges()
	return s
}

// registerGauges exposes the engine's cache counters and the upload-registry
// sizes as gauges sampled at scrape time — no counters to keep in sync with
// the underlying state.
func (s *Server) registerGauges() {
	s.metrics.GaugeFunc("galsim_service_cache_hits",
		"Runs served from the engine's result cache.",
		func() float64 { return float64(s.engine.Stats().Hits) })
	s.metrics.GaugeFunc("galsim_service_cache_misses",
		"Runs actually simulated by the engine.",
		func() float64 { return float64(s.engine.Stats().Misses) })
	s.metrics.GaugeFunc("galsim_service_cache_entries",
		"Completed runs currently held in the result cache.",
		func() float64 { return float64(s.engine.Stats().Entries) })
	s.metrics.GaugeFunc("galsim_service_workloads",
		"Uploaded custom workload profiles currently registered.",
		func() float64 { return float64(s.custom.len()) })
	s.metrics.GaugeFunc("galsim_service_machines",
		"Uploaded custom machine specs currently registered.",
		func() float64 { return float64(s.machines.len()) })
}

// Engine returns the server's campaign engine.
func (s *Server) Engine() *campaign.Engine { return s.engine }

// Metrics returns the server's Prometheus registry — the one /metrics
// serves. galsimd registers its fleet-worker metrics here, and
// cmd/galsim-fleet hands it to the coordinator so one scrape page covers
// service and fleet.
func (s *Server) Metrics() *telemetry.Registry { return s.metrics }

// backend returns the execution backend for runs and sweeps: the local
// engine unless a distributed one was installed.
func (s *Server) backend() campaign.Backend {
	if s.Backend != nil {
		return s.Backend
	}
	return s.engine
}

// ServeHTTP implements http.Handler. The full middleware stack is
// instrumentation (request ID, metrics, access log) around panic recovery
// around the mux — so a panicking handler still produces a 500 that is
// counted, logged and answered instead of killing the connection.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.initOnce.Do(func() {
		log := s.Log
		if log == nil {
			log = slog.Default()
		}
		s.handler = telemetry.Instrument("galsim_service", s.metrics, log,
			http.HandlerFunc(s.serveRecovered))
	})
	s.handler.ServeHTTP(w, r)
}

// serveRecovered converts panics escaping a handler (internal invariant
// violations in the simulator) into a 500 response.
func (s *Server) serveRecovered(w http.ResponseWriter, r *http.Request) {
	defer func() {
		if rec := recover(); rec != nil {
			writeError(w, http.StatusInternalServerError, fmt.Errorf("internal error: %v", rec))
		}
	}()
	s.mux.ServeHTTP(w, r)
}

func writeJSON(w http.ResponseWriter, status int, v any) { httpjson.Write(w, status, v) }

func writeError(w http.ResponseWriter, status int, err error) { httpjson.Error(w, status, err) }

func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	return httpjson.Decode(w, r, v, maxBodyBytes)
}

// RunResponse is the POST /run payload. Samples is present only when the
// spec enabled interval sampling (sample_interval > 0); Timeline only for
// ?timeline=1 requests that actually simulated (a cache hit has no events
// to replay) — it is a complete Chrome trace-event JSON document, ready to
// save and open at https://ui.perfetto.dev.
type RunResponse struct {
	campaign.UnitResult
	Samples  []pipeline.Sample `json:"samples,omitempty"`
	Timeline json.RawMessage   `json:"timeline,omitempty"`
}

// resolveWorkload substitutes an uploaded profile when the spec's benchmark
// names one: the run then carries the full profile content, so its cache
// identity covers what the workload *is*, not what it is called.
func (s *Server) resolveWorkload(spec *campaign.RunSpec) {
	if spec.Benchmark == "" || spec.Profile != nil || spec.Trace != nil {
		return
	}
	if p, ok := s.custom.get(spec.Benchmark); ok {
		spec.Benchmark = ""
		spec.Profile = &p
	}
}

// resolveMachine substitutes an uploaded machine when the spec's machine
// field names one: the run then carries the full topology content, so its
// cache identity (and the jobs a fleet coordinator ships to workers) covers
// what the machine *is*, not what it is called.
func (s *Server) resolveMachine(spec *campaign.RunSpec) {
	if spec.Machine == "" || spec.MachineSpec != nil {
		return
	}
	if _, err := machine.ByName(spec.Machine); err == nil {
		return // built-ins resolve everywhere; never shadow them
	}
	if m, ok := s.machines.get(spec.Machine); ok {
		spec.Machine = ""
		spec.MachineSpec = &m
	}
}

// admit runs the request through the admission gate; without one every
// request is the anonymous tenant.
func (s *Server) admit(w http.ResponseWriter, r *http.Request) (string, bool) {
	if s.Admission == nil {
		return "", true
	}
	return s.Admission.Admit(w, r)
}

// writeBackendError maps a failed batch execution to its HTTP status: 429
// with a Retry-After hint when the distributed backend's bounded queue
// rejected the work, 499 when the client hung up, 500 otherwise.
func writeBackendError(w http.ResponseWriter, r *http.Request, err error) {
	switch {
	case errors.Is(err, campaign.ErrBackendBusy):
		w.Header().Set("Retry-After", "5")
		httpjson.ErrorCode(w, http.StatusTooManyRequests, "backend_busy", err)
	case r.Context().Err() != nil:
		writeError(w, 499, err) // client closed request
	default:
		writeError(w, http.StatusInternalServerError, err)
	}
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	tenant, ok := s.admit(w, r)
	if !ok {
		return
	}
	var spec campaign.RunSpec
	if !decodeBody(w, r, &spec) {
		return
	}
	// A trace or snapshot reference names a server-side file; honouring it
	// would let clients probe the server's filesystem. Both are local-tooling
	// features (galsim -replay and -snapshot-in, or the library API).
	if spec.Trace != nil {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("trace replay is not available over HTTP; use galsim -replay or the library API"))
		return
	}
	if spec.Snapshot != nil {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("snapshot restore is not available over HTTP; use galsim -snapshot-in or the library API"))
		return
	}
	s.resolveWorkload(&spec)
	s.resolveMachine(&spec)
	u, err := spec.Resolve()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	wantTimeline := false
	if v := r.URL.Query().Get("timeline"); v != "" {
		b, err := strconv.ParseBool(v)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad timeline=%q (want a boolean)", v))
			return
		}
		wantTimeline = b
	}
	if wantTimeline && s.Backend != nil {
		// Distributed runs simulate on workers; their in-sim windows arrive
		// as spans via the coordinator, not as a local event timeline.
		writeError(w, http.StatusBadRequest, fmt.Errorf(
			"timeline=1 is not available on a fleet front end; use GET /sweeps/{id}/trace for distributed traces"))
		return
	}
	if s.Admission != nil {
		if !s.Admission.AcquireUnits(w, tenant, 1) {
			return
		}
		defer s.Admission.ReleaseUnits(tenant, 1)
	}
	var rec *timeline.Recorder
	if wantTimeline {
		rec = timeline.NewRecorder(timeline.Options{})
	}
	stats := []pipeline.Stats{{}}
	if s.Backend != nil {
		// A human is waiting on this response: on a priority-aware backend
		// (the fleet coordinator) the unit jumps ahead of queued bulk sweeps.
		stats, err = s.Backend.RunAll(campaign.WithPriority(r.Context(), campaign.PriorityInteractive), []campaign.RunSpec{u.Spec()})
	} else {
		var hit bool
		stats[0], hit, err = s.engine.RunUnit(r.Context(), u, campaign.ExecOpts{Tap: campaign.TimelineTap{Recorder: rec}})
		if hit {
			rec = nil // served from cache: nothing was simulated, no events
		}
	}
	if err != nil {
		writeBackendError(w, r, err)
		return
	}
	resp := RunResponse{UnitResult: campaign.Results([]*campaign.Unit{u}, stats)[0], Samples: stats[0].Samples}
	if rec != nil {
		resp.Timeline = rec.TraceJSON()
	}
	writeJSON(w, http.StatusOK, resp)
}

// SweepResponse is the POST /sweep payload. ID names the sweep in the
// progress tracker: GET /sweeps/{id}/progress serves its terminal snapshot
// (and live snapshots while the sweep was still running).
type SweepResponse struct {
	ID      string                `json:"id"`
	Units   int                   `json:"units"`
	Cache   campaign.CacheStats   `json:"cache"`
	Results []campaign.UnitResult `json:"results"`
}

// resolveSweepMachines rewrites a sweep whose machine axis references
// uploaded machines: every name entry becomes a full spec (built-ins
// included, preserving axis order — RunSpec canonicalization collapses
// built-in-equal specs back to their names, so cache identities are
// untouched). A name that is neither a built-in nor uploaded is an error
// naming the offender, so a typo'd entry cannot shift blame onto a
// correctly registered machine.
func (s *Server) resolveSweepMachines(sweep *campaign.Sweep) error {
	needed := false
	for _, name := range sweep.Machines {
		if _, err := machine.ByName(name); err != nil {
			needed = true
		}
	}
	if !needed {
		return nil
	}
	var specs []machine.Spec
	for _, name := range sweep.Machines {
		if sp, err := machine.ByName(name); err == nil {
			specs = append(specs, sp)
		} else if sp, ok := s.machines.get(name); ok {
			specs = append(specs, sp)
		} else {
			return fmt.Errorf("unknown machine %q in sweep (built-in machines: %s; uploaded: %v)",
				name, strings.Join(machine.BuiltinNames(), ", "), s.machines.names())
		}
	}
	sweep.Machines = nil
	sweep.MachineSpecs = append(specs, sweep.MachineSpecs...)
	return nil
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	tenant, ok := s.admit(w, r)
	if !ok {
		return
	}
	var sweep campaign.Sweep
	if !decodeBody(w, r, &sweep) {
		return
	}
	if err := s.resolveSweepMachines(&sweep); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// Size the expansion before materializing it: the cross product of a
	// few request-supplied axes can be astronomically larger than the body
	// that encodes them.
	if n := sweep.NumUnits(); s.MaxSweepUnits > 0 && n > s.MaxSweepUnits {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("sweep expands to %d units, above the server limit of %d; split the request", n, s.MaxSweepUnits))
		return
	}
	units, err := sweep.Units()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if s.Admission != nil {
		// The whole expansion counts against the tenant's queued-unit quota
		// for as long as the sweep runs.
		if !s.Admission.AcquireUnits(w, tenant, len(units)) {
			return
		}
		defer s.Admission.ReleaseUnits(tenant, len(units))
	}
	tracked := s.trackSweep(r.Context(), len(units))
	stats, err := campaign.RunUnitsOn(r.Context(), s.backend(), units, sweep.Warmup,
		func(p campaign.Progress) { s.sweepProgress(tracked, p) })
	s.sweepDone(tracked, err)
	if err != nil {
		writeBackendError(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, SweepResponse{
		ID:      tracked.ID,
		Units:   len(units),
		Cache:   s.engine.Stats(),
		Results: campaign.Results(units, stats),
	})
}

func (s *Server) experimentConfig(r *http.Request) (experiments.Config, error) {
	cfg := experiments.DefaultConfig()
	cfg.Engine = s.engine
	// A disconnecting client frees its worker slots instead of simulating
	// to completion; the resulting panic lands in the recover middleware.
	cfg.Ctx = r.Context()
	q := r.URL.Query()
	if v := q.Get("n"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil || n == 0 {
			return cfg, fmt.Errorf("bad n=%q (want a positive instruction count)", v)
		}
		cfg.Instructions = n
	}
	if v := q.Get("seed"); v != "" {
		seed, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return cfg, fmt.Errorf("bad seed=%q: %v", v, err)
		}
		cfg.WorkloadSeed = seed
	}
	if v := q.Get("benchmarks"); v != "" {
		cfg.Benchmarks = strings.Split(v, ",")
	}
	// Reject unknown benchmark names here: past this point the experiment
	// drivers treat failures as internal invariants.
	if err := cfg.Validate(); err != nil {
		return cfg, err
	}
	return cfg, nil
}

func (s *Server) handleExperiment(w http.ResponseWriter, r *http.Request) {
	figure := r.PathValue("figure")
	cfg, err := s.experimentConfig(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	tables, err := experiments.Regenerate(cfg, figure)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	switch format := r.URL.Query().Get("format"); format {
	case "", "json":
		writeJSON(w, http.StatusOK, tables)
	case "text":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		for _, t := range tables {
			t.Render(w)
		}
	case "csv":
		w.Header().Set("Content-Type", "text/csv")
		for _, t := range tables {
			if err := t.WriteCSV(w); err != nil {
				return
			}
		}
	default:
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("unknown format %q (want json, text or csv)", format))
	}
}

func (s *Server) handleBenchmarks(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"benchmarks": campaign.Benchmarks()})
}

// WorkloadInfo is one GET /workloads entry: a benchmark's statistical
// profile at the granularity the paper characterizes workloads by.
type WorkloadInfo struct {
	Name       string  `json:"name"`
	Suite      string  `json:"suite"`
	BranchFrac float64 `json:"branch_frac"`
	FPFrac     float64 `json:"fp_frac"`
	MemFrac    float64 `json:"mem_frac"`
	CodeBytes  int     `json:"code_bytes"`
	DataBytes  int     `json:"data_bytes"`
}

// WorkloadsResponse is the GET /workloads payload.
type WorkloadsResponse struct {
	Builtin []WorkloadInfo         `json:"builtin"`
	Custom  []workload.ProfileSpec `json:"custom"`
}

func (s *Server) handleWorkloads(w http.ResponseWriter, r *http.Request) {
	resp := WorkloadsResponse{Custom: []workload.ProfileSpec{}}
	for _, p := range workload.All() {
		resp.Builtin = append(resp.Builtin, WorkloadInfo{
			Name:       p.Name,
			Suite:      p.Suite,
			BranchFrac: p.Mix.Branch,
			FPFrac:     p.Mix.FPFrac(),
			MemFrac:    p.Mix.MemFrac(),
			CodeBytes:  p.CodeFootprint,
			DataBytes:  p.DataWorkingSet,
		})
	}
	resp.Custom = append(resp.Custom, s.custom.values()...)
	sort.Slice(resp.Custom, func(i, j int) bool { return resp.Custom[i].Name < resp.Custom[j].Name })
	writeJSON(w, http.StatusOK, resp)
}

// UploadResponse is the POST /workloads payload.
type UploadResponse struct {
	Name   string `json:"name"`
	Phases int    `json:"phases"`
}

func (s *Server) handleUploadWorkload(w http.ResponseWriter, r *http.Request) {
	var spec workload.ProfileSpec
	if !decodeBody(w, r, &spec) {
		return
	}
	if err := spec.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	encoded, err := json.Marshal(spec)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("encoding profile: %w", err))
		return
	}
	exists, err := s.custom.put(spec.Name, spec, len(encoded))
	if err != nil {
		writeError(w, http.StatusInsufficientStorage, err)
		return
	}
	status := http.StatusCreated
	if exists {
		status = http.StatusOK // idempotent re-upload / replacement
	}
	writeJSON(w, status, UploadResponse{Name: spec.Name, Phases: len(spec.Phases)})
}

// MachineInfo is one GET /machines entry: the canonical spec plus its
// content digest (the identity cache keys and trace provenance record) and
// a domain summary.
type MachineInfo struct {
	Name    string       `json:"name"`
	Digest  string       `json:"digest"`
	Domains []string     `json:"domains"`
	Dynamic bool         `json:"dynamic"` // has a dynamic-DVFS-capable domain
	Spec    machine.Spec `json:"spec"`
}

// MachinesResponse is the GET /machines payload.
type MachinesResponse struct {
	Builtin []MachineInfo `json:"builtin"`
	Custom  []MachineInfo `json:"custom"`
}

func machineInfo(sp machine.Spec) MachineInfo {
	c := sp.Canonical()
	return MachineInfo{
		Name:    c.Name,
		Digest:  c.Digest(),
		Domains: c.DomainNames(),
		Dynamic: c.DynamicCapable(),
		Spec:    c,
	}
}

func (s *Server) handleMachines(w http.ResponseWriter, r *http.Request) {
	resp := MachinesResponse{Custom: []MachineInfo{}}
	for _, sp := range machine.Builtins() {
		resp.Builtin = append(resp.Builtin, machineInfo(sp))
	}
	for _, sp := range s.machines.values() {
		resp.Custom = append(resp.Custom, machineInfo(sp))
	}
	sort.Slice(resp.Custom, func(i, j int) bool { return resp.Custom[i].Name < resp.Custom[j].Name })
	writeJSON(w, http.StatusOK, resp)
}

// MachineUploadResponse is the POST /machines payload. The digest is stable
// across uploads of equal specs — the property fleet-wide cache dedup and
// replay provenance rest on.
type MachineUploadResponse struct {
	Name    string `json:"name"`
	Digest  string `json:"digest"`
	Domains int    `json:"domains"`
}

func (s *Server) handleUploadMachine(w http.ResponseWriter, r *http.Request) {
	var spec machine.Spec
	if !decodeBody(w, r, &spec) {
		return
	}
	exists, err := s.RegisterMachine(spec)
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, s.machines.full) {
			status = http.StatusInsufficientStorage
		}
		writeError(w, status, err)
		return
	}
	status := http.StatusCreated
	if exists {
		status = http.StatusOK // idempotent re-upload / replacement
	}
	writeJSON(w, status, MachineUploadResponse{
		Name:    spec.Name,
		Digest:  spec.Digest(),
		Domains: len(spec.Domains),
	})
}

// RegisterMachine validates and stores a machine spec in the server's
// registry, so /run and /sweep requests may reference it by name; replaced
// reports whether an entry of the same name existed. Used by the /machines
// upload handler and by front ends (galsim-fleet -machine) that pre-load
// machines at startup. Built-in names are reserved.
func (s *Server) RegisterMachine(spec machine.Spec) (replaced bool, err error) {
	if err := spec.Validate(); err != nil {
		return false, err
	}
	if _, err := machine.ByName(spec.Name); err == nil {
		return false, fmt.Errorf("machine name %q is reserved for the built-in machine", spec.Name)
	}
	encoded, err := json.Marshal(spec)
	if err != nil {
		return false, fmt.Errorf("encoding machine spec: %w", err)
	}
	return s.machines.put(spec.Name, spec, len(encoded))
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.engine.Stats())
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}
