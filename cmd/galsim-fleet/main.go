// Command galsim-fleet runs the distributed campaign coordinator: it
// accepts the same /run and /sweep requests as galsimd but shards the work
// into jobs and dispatches them across a fleet of galsimd workers, merging
// results deterministically (by unit index, never arrival order) so the
// output is byte-identical to a single-process run.
//
// Workers enroll with galsimd's -join flag, or -spawn starts in-process
// workers for a single-machine fleet:
//
//	galsim-fleet -addr :9090 -spawn 3
//	curl -s -X POST localhost:9090/sweep \
//	    -d '{"benchmarks":["gcc","perl"],"instructions":20000,
//	         "slowdown_grid":[{},{"fp":1.5},{"fp":3}],"machines":["gals"]}'
//	curl -s localhost:9090/stats          # aggregated fleet stats
//	curl -s localhost:9090/metrics        # fleet + service Prometheus page
//
// Multi-process on one machine:
//
//	galsim-fleet -addr :9090
//	galsimd -addr :8081 -join http://localhost:9090
//	galsimd -addr :8082 -join http://localhost:9090
//	galsimd -addr :8083 -join http://localhost:9090
//
// Fleet endpoints served alongside the galsimd API:
//
//	POST /join           worker registration
//	POST /jobs/lease     job lease (long-polls while the queue is idle)
//	POST /jobs/complete  streamed per-job completions
//	GET  /stats          fleet-wide cache counters, queue depth, uptime, per-worker health
//	GET  /metrics        Prometheus text exposition (fleet queue/lease/job
//	                     metrics merged with the service's HTTP metrics)
//
// Every sweep is traced: the coordinator stamps jobs with a W3C traceparent,
// workers ship their execution spans back, and GET /sweeps/{id}/trace (from
// the service API beneath) serves the whole sweep — coordinator, every
// worker, and in-sim stall windows — as one Perfetto-loadable trace.
//
// Logging is structured (log/slog; -log-level, -log-format). Campaign
// submissions are logged with a request ID that every job of the campaign
// carries to its worker, so one sweep's lifecycle is greppable across the
// whole fleet.
//
// Durability and multi-tenancy:
//
//	-journal DIR        write-ahead journal; a crashed/killed coordinator
//	                    resumes unfinished sweeps on restart
//	-tenants FILE       per-tenant API keys, token-bucket rate limits and
//	                    queued-unit quotas on /run, /sweep and the fleet
//	                    endpoints (401/429 with Retry-After)
//	-max-queued-jobs N  bound the global job queue; overflow answers 429
//	-drain-timeout D    spawned workers finish in-flight jobs on shutdown
//	-checkpoint-every N spawned workers post a full-state job checkpoint every
//	                    N committed instructions; a job that loses its worker
//	                    (or, with -journal, its coordinator) resumes from the
//	                    last checkpoint instead of restarting
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"

	"galsim/internal/admission"
	"galsim/internal/campaign"
	"galsim/internal/cluster"
	"galsim/internal/httpjson"
	"galsim/internal/machine"
	"galsim/internal/service"
	"galsim/internal/telemetry"
	"galsim/internal/timeline"
	"galsim/internal/wal"
)

func main() {
	var (
		addr        = flag.String("addr", ":9090", "listen address")
		leaseTTL    = flag.Duration("lease-ttl", 30*time.Second, "per-job worker lease; an expired lease re-queues the job on the surviving fleet")
		maxAttempts = flag.Int("max-attempts", 3, "dispatch attempts per job before its campaign fails")
		spawn       = flag.Int("spawn", 0, "in-process workers to start (single-machine fleet; 0 = external workers only)")
		spawnSlots  = flag.Int("spawn-slots", 0, "concurrent jobs per spawned worker (0 = GOMAXPROCS split across spawned workers)")
		maxUnits    = flag.Int("max-sweep-units", 4096, "reject sweeps expanding beyond this many units (0 = unlimited)")
		machineFile = flag.String("machine", "", "MachineSpec JSON file(s) to pre-register, comma-separated; /run and /sweep requests may then reference them by name")
		gracePd     = flag.Duration("grace", 10*time.Second, "shutdown grace period")
		rdTimeout   = flag.Duration("read-timeout", 60*time.Second, "request read timeout (must exceed the lease long-poll)")
		wrTimeout   = flag.Duration("write-timeout", 10*time.Minute, "response write timeout (long sweeps stream slowly)")
		idleTimout  = flag.Duration("idle-timeout", 2*time.Minute, "keep-alive idle timeout")
		logLevel    = flag.String("log-level", "info", "log threshold: debug|info|warn|error")
		logFormat   = flag.String("log-format", "text", "log encoding: text|json")
		enablePprof = flag.Bool("pprof", false,
			"serve Go runtime profiles under /debug/pprof/ (off by default; enable only on trusted networks)")
		tlEvents = flag.Int("timeline-events", 0,
			"flight-recorder ring size for traced jobs on spawned workers (0 = small default, negative = no in-sim spans)")
		maxSpans = flag.Int("max-spans", 0,
			"most recent trace spans retained for GET /sweeps/{id}/trace (0 = default)")
		journalDir = flag.String("journal", "",
			"directory for the crash-safe campaign journal (WAL); unfinished sweeps resume after a restart (empty = in-memory only)")
		journalSync = flag.Int("journal-sync", 1,
			"fsync the journal every Nth append (1 = every record is durable before it is acknowledged; negative = never, the OS decides)")
		tenantsFile = flag.String("tenants", "",
			"tenant API-key config JSON (see internal/admission); gates /run, /sweep and the fleet endpoints behind per-tenant rate limits and queued-unit quotas")
		maxQueued = flag.Int("max-queued-jobs", 0,
			"reject new campaigns with 429 once this many jobs are queued or in flight (0 = unbounded)")
		drainTime = flag.Duration("drain-timeout", 30*time.Second,
			"on shutdown, spawned workers finish and report their in-flight jobs for at most this long (0 = abandon them to the lease TTL)")
		ckptEvery = flag.Uint64("checkpoint-every", 0,
			"spawned workers post a full-state job checkpoint every N committed instructions; a job that outlives its worker (or this coordinator, with -journal) resumes from the last checkpoint instead of restarting (0 = off)")
	)
	flag.Parse()

	log, err := telemetry.NewLogger(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		flag.Usage()
		os.Exit(2)
	}
	fatal := func(msg string, args ...any) {
		log.Error(msg, args...)
		os.Exit(1)
	}

	// The local engine serves /experiments and validation; campaign batches
	// go through the coordinator. The coordinator shares the service's
	// metrics registry so the shadowing GET /metrics covers both.
	engine := campaign.NewEngine(0)
	svc := service.New(engine)
	svc.MaxSweepUnits = *maxUnits
	svc.Log = log
	// One span collector shared between the coordinator (which records
	// campaign/lease spans and folds worker spans in) and the service
	// (which serves them on GET /sweeps/{id}/trace).
	spans := timeline.NewSpanCollector(*maxSpans)
	svc.Spans = spans

	// Durability: with -journal, every campaign and completion is written
	// ahead to a WAL so a crashed coordinator resumes unfinished sweeps on
	// restart instead of losing them.
	var journal *cluster.JournalStore
	if *journalDir != "" {
		journal, err = cluster.OpenJournal(*journalDir, wal.Options{SyncEvery: *journalSync})
		if err != nil {
			fatal("-journal unusable", "dir", *journalDir, "error", err)
		}
		defer journal.Close() //nolint:errcheck // best-effort on exit paths
	}

	// Multi-tenancy: with -tenants, API keys, token buckets and queued-unit
	// quotas gate the service and fleet endpoints.
	var gate *admission.Controller
	if *tenantsFile != "" {
		admCfg, err := admission.LoadConfig(*tenantsFile)
		if err != nil {
			fatal("-tenants invalid", "file", *tenantsFile, "error", err)
		}
		gate = admission.NewController(admCfg, admission.Options{Metrics: svc.Metrics(), Log: log})
		svc.Admission = gate
		log.Info("admission control enabled", "tenants", len(admCfg.Tenants))
	}

	coordCfg := cluster.Config{
		LeaseTTL:      *leaseTTL,
		MaxAttempts:   *maxAttempts,
		MaxQueuedJobs: *maxQueued,
		Metrics:       svc.Metrics(),
		Log:           log,
		Spans:         spans,
		Admission:     gate,
	}
	if journal != nil {
		coordCfg.Store = journal
	}
	coord := cluster.NewCoordinator(coordCfg)
	svc.Backend = coord

	// Replay the journal before serving: unfinished campaigns re-enter the
	// queue with their completed units prefilled, so a restarted fleet picks
	// up a half-done sweep where the crash left it.
	if journal != nil {
		resumed, err := coord.Recover()
		if err != nil {
			fatal("journal recovery failed", "dir", *journalDir, "error", err)
		}
		for _, r := range resumed {
			log.Info("resumed campaign from journal", "campaign", r.ID,
				"request_id", r.RequestID, "units", r.Units, "prefilled", r.PrefilledUnits)
		}
	}

	if *machineFile != "" {
		for _, path := range strings.Split(*machineFile, ",") {
			data, err := os.ReadFile(strings.TrimSpace(path))
			if err != nil {
				fatal("-machine unreadable", "error", err)
			}
			spec, err := machine.Parse(data)
			if err != nil {
				fatal("-machine invalid", "file", path, "error", err)
			}
			if _, err := svc.RegisterMachine(spec); err != nil {
				fatal("-machine rejected", "file", path, "error", err)
			}
			log.Info("registered machine", "name", spec.Name,
				"domains", len(spec.Domains), "digest", spec.Digest()[:12])
		}
	}

	mux := http.NewServeMux()
	coord.Register(mux) // fleet endpoints; GET /stats and /metrics shadow the service's
	if *enablePprof {
		telemetry.RegisterPprof(mux)
		log.Info("runtime profiles enabled at /debug/pprof/")
	}
	mux.Handle("/", svc)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal("listen failed", "addr", *addr, "error", err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var workerWG sync.WaitGroup
	if *spawn > 0 {
		self := selfURL(ln.Addr())
		slots := *spawnSlots
		if slots <= 0 {
			slots = max(1, runtime.GOMAXPROCS(0) / *spawn)
		}
		// Spawned workers authenticate like any external worker when the
		// fleet endpoints are gated: an internal tenant with no rate limit.
		workerKey := ""
		if gate != nil {
			workerKey = gate.AddInternalTenant("fleet-local")
		}
		for i := 1; i <= *spawn; i++ {
			wk := &cluster.Worker{
				Coordinator:     self,
				ID:              fmt.Sprintf("local-%d", i),
				Engine:          campaign.NewEngine(slots),
				Slots:           slots,
				APIKey:          workerKey,
				DrainTimeout:    *drainTime,
				CheckpointEvery: *ckptEvery,
				Log:             log,
				Metrics:         svc.Metrics(), // galsim_worker_* aggregates across the spawned workers
				TimelineEvents:  *tlEvents,
			}
			workerWG.Add(1)
			go func() {
				defer workerWG.Done()
				if err := wk.Run(ctx); err != nil && ctx.Err() == nil {
					log.Error("worker failed", "worker", wk.ID, "error", err)
				}
			}()
		}
		log.Info("spawned in-process workers", "workers", *spawn, "slots_each", slots)
	} else {
		log.Info("no local workers; sweeps wait until galsimd workers -join")
	}

	httpSrv := &http.Server{
		Handler:           http.Handler(panicGuard(mux)),
		ReadTimeout:       *rdTimeout,
		ReadHeaderTimeout: 10 * time.Second,
		WriteTimeout:      *wrTimeout,
		IdleTimeout:       *idleTimout,
	}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	log.Info("coordinating", "addr", ln.Addr().String(),
		"lease_ttl", leaseTTL.String(), "max_attempts", *maxAttempts,
		"journal", *journalDir, "tenants", *tenantsFile != "")

	select {
	case err := <-errc:
		fatal("serve failed", "error", err)
	case <-ctx.Done():
	}

	log.Info("shutting down", "grace", gracePd.String())
	// Order matters: spawned workers drain their in-flight jobs by POSTing
	// completions (and checkpoints) back to this very server. Shutting the
	// HTTP server down first would close the listener underneath them, so
	// finished work — already journaled as leased, not as done — would be
	// thrown away to the lease TTL. Wait for the drain (bounded by the
	// workers' own DrainTimeout, plus slack for the final completion posts)
	// before taking the listener down; only then stop serving.
	if *spawn > 0 {
		drained := make(chan struct{})
		go func() { workerWG.Wait(); close(drained) }()
		select {
		case <-drained:
			log.Info("spawned workers drained")
		case <-time.After(*drainTime + 5*time.Second):
			log.Warn("spawned workers still draining past their timeout; shutting down anyway")
		}
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *gracePd)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Warn("shutdown incomplete", "error", err)
	}
	st := coord.Stats()
	log.Info("fleet at exit", "workers", st.Workers, "alive", st.Alive,
		"jobs_done", st.JobsDone, "lease_expiries", st.LeaseExpiries,
		"job_failures", st.JobFailures, "uptime_seconds", st.UptimeSeconds)
}

// selfURL turns the bound listener address into a URL the spawned local
// workers can dial: wildcard hosts become loopback.
func selfURL(a net.Addr) string {
	host, port, err := net.SplitHostPort(a.String())
	if err != nil {
		return "http://" + a.String()
	}
	if ip := net.ParseIP(host); host == "" || (ip != nil && ip.IsUnspecified()) {
		host = "127.0.0.1"
	}
	return "http://" + net.JoinHostPort(host, port)
}

// panicGuard mirrors the service handler's recover middleware for the
// fleet endpoints, which are mounted outside the service mux.
func panicGuard(h http.Handler) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				httpjson.Error(w, http.StatusInternalServerError, fmt.Errorf("internal error: %v", rec))
			}
		}()
		h.ServeHTTP(w, r)
	}
}
