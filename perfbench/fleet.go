//go:build !simlongonly

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"net"
	"net/http"
	"os"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"galsim/internal/admission"
	"galsim/internal/campaign"
	"galsim/internal/cluster"
	"galsim/internal/service"
	"galsim/internal/snapshot"
	"galsim/internal/timeline"
	"galsim/internal/wal"
)

// fleet-mixed: the galsim-fleet stack in one process. A service front end
// hands /run to a cluster coordinator that journals to a WAL and sits
// behind an admission tenant whose limits never bind; one worker with
// nproc slots leases over loopback HTTP and checkpoints long jobs. nproc
// closed-loop clients post /run requests from a seeded mix:
//   - 40% repeat a hot set of 8 short specs, which the worker's engine
//     cache serves, so they cost only HTTP, keying and the lease fabric;
//   - 55% are fresh short specs: one cache miss and one insert each;
//   - 5% are fresh long units past the checkpoint cadence, which post
//     snapshots and journal checkpoint records.
//
// The hot share stays clear of one half so that the median request falls
// inside one kind of request, not on the boundary between hits and misses.
const (
	fleetShortInstrs = 6_000
	fleetLongInstrs  = 40_000
	fleetCheckpoint  = 16_000 // the worker's checkpoint cadence: two per long unit
	fleetHot         = 8
	fleetHotPct      = 40
	fleetLongPct     = 5
	fleetPass        = 40 // completions per pass, for sweep_wall_s
)

// tenantKey is the bearer key of the clients' admission tenant.
const tenantKey = "perfbench-tenant-key"

func init() { workloads["fleet-mixed"] = newFleetMixed }

type fleetMixed struct {
	env
	benchmarks []string
	hot        []campaign.RunSpec
	oracle     map[string]expected // the hot set's expected responses, by spec key
	stack      *fleetStack
	next       atomic.Int64 // index of the next request in the seeded sequence
}

// expected is what a correct /run response carries for one spec.
type expected struct {
	summary []byte // campaign.Summary as JSON
	err     error
}

// request is one /run round trip as its client saw it.
type request struct {
	index int64
	spec  campaign.RunSpec
	key   string // the spec's content key, filled at verification
	resp  service.RunResponse
	err   error
	rtt   time.Duration
	done  time.Time
}

func newFleetMixed(e env) (benchWorkload, error) {
	w := &fleetMixed{env: e, benchmarks: campaign.Benchmarks()}
	for k := range fleetHot {
		w.hot = append(w.hot, campaign.RunSpec{
			Benchmark:    w.benchmarks[2*k%len(w.benchmarks)],
			Machine:      []string{"base", "gals"}[k%2],
			Instructions: fleetShortInstrs,
			WorkloadSeed: derive(e.seed, 10+uint64(k)),
		})
	}
	// The oracle is the benchmark's own work, not the system's set-up, so
	// it runs once, before the timed set-ups.
	w.oracle = oracle(w.hot, e.nproc)
	for _, want := range w.oracle {
		if want.err != nil {
			return nil, want.err
		}
	}
	return w, nil
}

// oracle executes each spec directly — no cache, no fleet — for the
// summary a correct front end must return, by spec key.
func oracle(specs []campaign.RunSpec, workers int) map[string]expected {
	wants := make([]expected, len(specs))
	forEach(make(chan struct{}, workers), len(specs), func(i int) error {
		st, err := campaign.Execute(specs[i], nil)
		if err == nil {
			wants[i].summary, err = json.Marshal(campaign.Summarize(specs[i], st))
		}
		wants[i].err = err
		return nil
	})
	out := make(map[string]expected, len(specs))
	for i, spec := range specs {
		out[spec.Key()] = wants[i]
	}
	return out
}

// spec is request i of the seeded sequence.
func (w *fleetMixed) spec(i int64) campaign.RunSpec {
	h := splitmix64(splitmix64(uint64(w.seed)) + uint64(i))
	pick := h % 100
	if pick < fleetHotPct {
		return w.hot[h>>8%fleetHot]
	}
	instrs := uint64(fleetShortInstrs)
	if pick < fleetHotPct+fleetLongPct {
		instrs = fleetLongInstrs
	}
	return campaign.RunSpec{
		Benchmark:    w.benchmarks[h>>16%uint64(len(w.benchmarks))],
		Machine:      []string{"base", "gals"}[h>>40&1],
		Instructions: instrs,
		// Distinct for every request, and above every hot spec's seed.
		WorkloadSeed: 1<<40 + i,
	}
}

func (w *fleetMixed) setUp() error {
	dir, err := os.MkdirTemp(w.scratch, "journal-")
	if err != nil {
		return err
	}
	st, err := startFleet(dir, w.nproc)
	if err != nil {
		return err
	}
	w.stack = st
	// Warm-up: the hot set, which fills the worker's cache.
	return forEach(make(chan struct{}, w.nproc), len(w.hot), func(k int) error {
		_, err := st.post(-1, w.hot[k])
		return err
	})
}

func (w *fleetMixed) tearDown() {
	if w.stack != nil {
		w.stack.stop()
		w.stack = nil
	}
}

func (w *fleetMixed) measure(window time.Duration, tr *tracer) (*run, error) {
	st := w.stack
	st.trace(tr != nil)
	before := st.counters()
	var (
		mu   sync.Mutex
		reqs []request
		wg   sync.WaitGroup
	)
	m, err := startMeter(tr)
	if err != nil {
		return nil, err
	}
	deadline := m.start.Add(window)
	for range w.nproc {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				q := request{index: w.next.Add(1) - 1}
				q.spec = w.spec(q.index)
				start := time.Now()
				q.resp, q.err = st.post(q.index, q.spec)
				q.done = time.Now()
				q.rtt = q.done.Sub(start)
				mu.Lock()
				reqs = append(reqs, q)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	st.trace(false)
	r := &run{byRequests: true}
	if err := m.stop(r); err != nil {
		return nil, err
	}
	after := st.counters()
	r.passes = passes(m.start, reqs, fleetPass)
	w.verify(r, reqs)
	if tr != nil {
		if r.layers, err = w.layers(st, reqs, before, after); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// passes splits the completions, in order, into runs of n and times each.
func passes(start time.Time, reqs []request, n int) []time.Duration {
	done := make([]time.Time, len(reqs))
	for i, q := range reqs {
		done[i] = q.done
	}
	slices.SortFunc(done, time.Time.Compare)
	var out []time.Duration
	prev := start
	for i := n - 1; i < len(done); i += n {
		out = append(out, done[i].Sub(prev))
		prev = done[i]
	}
	return out
}

// verify checks every response against the oracle: the spec's content
// key, the summary a direct campaign.Execute gives, and the whole budget
// committed. The fresh specs' oracle runs here, after the window.
func (w *fleetMixed) verify(r *run, reqs []request) {
	want := maps.Clone(w.oracle)
	var fresh []campaign.RunSpec
	for i := range reqs {
		q := &reqs[i]
		q.key = q.spec.Key()
		if _, ok := want[q.key]; !ok && q.err == nil {
			want[q.key] = expected{}
			fresh = append(fresh, q.spec)
		}
	}
	maps.Copy(want, oracle(fresh, w.nproc))
	reported := 0
	for _, q := range reqs {
		err := q.err
		if err == nil {
			err = checkResponse(q, want[q.key])
		}
		if err == nil && !r.record(q.key, digestOf(q.resp.Summary)) {
			err = errors.New("summary differs from an earlier response for the same spec")
		}
		if !r.check(err == nil) {
			if reported++; reported <= 5 {
				fmt.Fprintf(os.Stderr, "perfbench: request %d (%s/%s): %v\n", q.index, q.spec.Machine, q.spec.Benchmark, err)
			}
			continue
		}
		r.ops = append(r.ops, op{latency: q.rtt, instrs: q.resp.Summary.Committed, evals: 1})
	}
}

func checkResponse(q request, want expected) error {
	if want.err != nil {
		return fmt.Errorf("oracle: %w", want.err)
	}
	got, err := json.Marshal(q.resp.Summary)
	switch {
	case err != nil:
		return err
	case q.resp.Key != q.key:
		return fmt.Errorf("key %.12s, want %.12s", q.resp.Key, q.key)
	case q.resp.Summary.Committed != q.spec.Instructions:
		return fmt.Errorf("committed %d of %d instructions", q.resp.Summary.Committed, q.spec.Instructions)
	case !bytes.Equal(got, want.summary):
		return errors.New("summary differs from a direct campaign.Execute")
	}
	return nil
}

// layers turns the traced window's probes into the fleet's span metrics.
func (w *fleetMixed) layers(st *fleetStack, reqs []request, before, after fleetCounters) (map[string]float64, error) {
	n := float64(len(reqs))
	handled := st.handler.take()
	var handler, overhead, keys []float64
	for _, q := range reqs {
		if d, ok := handled[q.index]; ok {
			handler = append(handler, ms(d))
			overhead = append(overhead, ms(q.rtt-d))
		}
		start := time.Now()
		_ = q.spec.Canonical().Key()
		keys = append(keys, float64(time.Since(start))/1e3)
	}
	backend := msOf(st.backend.calls.take())
	t := st.transport.take()
	execute := msOf(t.execute)
	hits := after.cache.Hits - before.cache.Hits
	lookups := hits + after.cache.Misses - before.cache.Misses
	v := map[string]float64{
		"campaign.key_us":               median(keys),
		"campaign.worker_hit_ratio":     float64(hits) / float64(lookups),
		"service.handler_ms_p50":        median(handler),
		"service.http_ms_p50":           median(overhead),
		"cluster.backend_ms_p50":        median(backend),
		"cluster.execute_ms_p50":        median(execute),
		"cluster.fabric_ms_per_req":     mean(backend) - mean(execute),
		"cluster.lease_calls_per_req":   float64(t.leases) / n,
		"cluster.lease_wait_ms_per_req": ms(t.leaseWait) / n,
		"cluster.complete_ms_p50":       median(msOf(t.complete)),
		"cluster.checkpoint_ms_p50":     median(msOf(t.checkpoint)),
		"cluster.retries":               float64(after.fleet.JobFailures - before.fleet.JobFailures),
		"cluster.lease_expiries":        float64(after.fleet.LeaseExpiries - before.fleet.LeaseExpiries),
		"wal.enqueue_ms_p50":            median(msOf(st.store.enqueue.take())),
		"wal.complete_ms_p50":           median(msOf(st.store.complete.take())),
		"wal.checkpoint_ms_p50":         median(msOf(st.store.checkpoint.take())),
		"wal.finish_ms_p50":             median(msOf(st.store.finish.take())),
		"wal.fsyncs_per_req":            float64(after.wal.Fsyncs-before.wal.Fsyncs) / n,
	}
	snap, err := w.snapshotLayers()
	if err != nil {
		return nil, err
	}
	maps.Copy(v, snap)
	return v, nil
}

// snapshotLayers times the snapshot codec directly on the last checkpoint
// of a long unit, captured the way the worker captures its checkpoints.
func (w *fleetMixed) snapshotLayers() (map[string]float64, error) {
	spec := w.hot[0]
	spec.Instructions = fleetLongInstrs
	var last *snapshot.Snapshot
	_, err := campaign.ExecuteOpts(spec, campaign.ExecOpts{
		CheckpointEvery: fleetCheckpoint,
		OnSnapshot:      func(s *snapshot.Snapshot) { last = s },
	})
	if err != nil {
		return nil, err
	}
	if last == nil {
		return nil, errors.New("the long unit delivered no checkpoint")
	}
	var encode, decode []float64
	var blob []byte
	for range 5 {
		start := time.Now()
		if blob, err = last.EncodeBytes(); err != nil {
			return nil, err
		}
		encode = append(encode, ms(time.Since(start)))
		start = time.Now()
		if _, err = snapshot.DecodeBytes(blob); err != nil {
			return nil, err
		}
		decode = append(decode, ms(time.Since(start)))
	}
	return map[string]float64{
		"snapshot.encode_ms": median(encode),
		"snapshot.decode_ms": median(decode),
		"snapshot.bytes":     float64(len(blob)),
	}, nil
}

// fleetStack is cmd/galsim-fleet's stack with one spawned worker, in
// process on a loopback port, with the traced run's probes at its seams.
type fleetStack struct {
	url             string
	dir             string
	client          *http.Client // the closed-loop clients'
	journal         *cluster.JournalStore
	coord           *cluster.Coordinator
	engine          *campaign.Engine // the worker's
	srv             *http.Server
	served          chan error
	workerTransport *http.Transport
	stopWorker      context.CancelFunc
	workerDone      chan struct{}
	workerErr       error

	tracing   atomic.Bool
	handler   *timedHandler
	backend   *timedBackend
	store     *timedStore
	transport *timedTransport
}

// startFleet brings the stack up as cmd/galsim-fleet does with -journal,
// -tenants, -spawn 1 and -checkpoint-every, at its default lease TTL,
// attempts and journal sync policy, and returns once the worker has
// joined. The stack owns dir and removes it when stopped.
func startFleet(dir string, nproc int) (_ *fleetStack, err error) {
	s := &fleetStack{dir: dir, served: make(chan error, 1), workerDone: make(chan struct{})}
	defer func() {
		if err != nil {
			s.stop()
		}
	}()
	if s.journal, err = cluster.OpenJournal(dir, wal.Options{SyncEvery: 1}); err != nil {
		return nil, err
	}
	svc := service.New(campaign.NewEngine(0))
	svc.Log = quietLog
	spans := timeline.NewSpanCollector(0)
	svc.Spans = spans
	gate := admission.NewController(admission.Config{Tenants: []admission.Tenant{{
		Name: "perfbench", Key: tenantKey, RatePerSec: 1e9, Burst: 1e9, MaxQueuedUnits: 1 << 30,
	}}}, admission.Options{Metrics: svc.Metrics(), Log: quietLog})
	svc.Admission = gate
	s.store = &timedStore{s: s.journal, on: &s.tracing}
	s.coord = cluster.NewCoordinator(cluster.Config{
		LeaseTTL:    30 * time.Second,
		MaxAttempts: 3,
		Metrics:     svc.Metrics(),
		Log:         quietLog,
		Spans:       spans,
		Store:       wrapStore(s.store),
		Admission:   gate,
	})
	s.backend = &timedBackend{b: s.coord, on: &s.tracing}
	svc.Backend = wrapBackend(s.backend)
	if _, err = s.coord.Recover(); err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	s.coord.Register(mux)
	s.handler = &timedHandler{h: svc, on: &s.tracing}
	mux.Handle("/", s.handler)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.url = "http://" + ln.Addr().String()
	s.srv = &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	go func() { s.served <- s.srv.Serve(ln) }()

	s.engine = campaign.NewEngine(nproc)
	s.workerTransport = loopbackTransport()
	s.transport = &timedTransport{rt: s.workerTransport, on: &s.tracing}
	worker := &cluster.Worker{
		Coordinator:     s.url,
		ID:              "local-1",
		Engine:          s.engine,
		Slots:           nproc,
		APIKey:          gate.AddInternalTenant("fleet-local"),
		DrainTimeout:    30 * time.Second,
		CheckpointEvery: fleetCheckpoint,
		Client:          &http.Client{Transport: wrapTransport(s.transport), Timeout: 2 * time.Minute},
		Log:             quietLog,
		Metrics:         svc.Metrics(),
	}
	ctx, cancel := context.WithCancel(context.Background())
	s.stopWorker = cancel
	go func() {
		defer close(s.workerDone)
		s.workerErr = worker.Run(ctx)
	}()
	s.client = &http.Client{Transport: loopbackTransport()}
	if err = s.awaitWorker(); err != nil {
		return nil, err
	}
	return s, nil
}

// loopbackTransport keeps an idle connection for every concurrent caller.
func loopbackTransport() *http.Transport {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxIdleConnsPerHost = 64
	return t
}

// awaitWorker returns once the worker has joined the coordinator.
func (s *fleetStack) awaitWorker() error {
	deadline := time.After(10 * time.Second)
	for s.coord.Stats().Workers == 0 {
		select {
		case <-s.workerDone:
			return fmt.Errorf("worker stopped before joining: %v", s.workerErr)
		case <-deadline:
			return errors.New("worker did not join within 10s")
		case <-time.After(time.Millisecond):
		}
	}
	return nil
}

// trace switches the probes on, discarding what they held, or off.
func (s *fleetStack) trace(on bool) {
	if on {
		s.handler.take()
		s.backend.calls.take()
		s.store.enqueue.take()
		s.store.complete.take()
		s.store.checkpoint.take()
		s.store.finish.take()
		s.transport.take()
	}
	s.tracing.Store(on)
}

// fleetCounters are the stack's cumulative counters at one instant.
type fleetCounters struct {
	cache campaign.CacheStats
	fleet cluster.FleetStats
	wal   wal.Stats
}

func (s *fleetStack) counters() fleetCounters {
	return fleetCounters{cache: s.engine.Stats(), fleet: s.coord.Stats(), wal: s.journal.WALStats()}
}

// post sends one /run request as a client of the tenant.
func (s *fleetStack) post(index int64, spec campaign.RunSpec) (service.RunResponse, error) {
	var rr service.RunResponse
	body, err := json.Marshal(spec)
	if err != nil {
		return rr, err
	}
	req, err := http.NewRequest(http.MethodPost, s.url+"/run", bytes.NewReader(body))
	if err != nil {
		return rr, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Authorization", "Bearer "+tenantKey)
	req.Header.Set(requestHeader, strconv.FormatInt(index, 10))
	resp, err := s.client.Do(req)
	if err != nil {
		return rr, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return rr, err
	}
	if resp.StatusCode != http.StatusOK {
		return rr, fmt.Errorf("/run: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	err = json.Unmarshal(data, &rr)
	return rr, err
}

// stop shuts the stack down — the worker first, so that nothing it holds
// is left in flight — and removes the journal.
func (s *fleetStack) stop() {
	if s.stopWorker != nil {
		s.stopWorker()
		<-s.workerDone
	}
	if s.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if s.srv.Shutdown(ctx) != nil {
			s.srv.Close()
		}
		cancel()
		<-s.served
	}
	if s.client != nil {
		s.client.CloseIdleConnections()
	}
	if s.workerTransport != nil {
		s.workerTransport.CloseIdleConnections()
	}
	if s.journal != nil {
		s.journal.Close()
	}
	os.RemoveAll(s.dir)
}
