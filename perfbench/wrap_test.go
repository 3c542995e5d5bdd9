//go:build !simlongonly

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"sync/atomic"
	"testing"

	"galsim/internal/campaign"
	"galsim/internal/cluster"
	"galsim/internal/explore"
	"galsim/internal/pipeline"
	"galsim/internal/wal"
)

// Each wrapper must offer exactly the optional interfaces of what it
// wraps, or the program would take other paths when traced.

func tracingOn() *atomic.Bool {
	on := new(atomic.Bool)
	on.Store(true)
	return on
}

type progressOnly struct{ campaign.Backend }

func (p progressOnly) RunAllProgress(ctx context.Context, specs []campaign.RunSpec, _ campaign.ProgressFunc) ([]pipeline.Stats, error) {
	return p.RunAll(ctx, specs)
}

func TestWrapBackendForwardsOptionalInterfaces(t *testing.T) {
	eng := campaign.NewEngine(1)
	for _, c := range []struct {
		name           string
		b              campaign.Backend
		progress, warm bool
	}{
		{"engine", eng, true, true},
		{"progress only", progressOnly{eng}, true, false},
		{"plain", struct{ campaign.Backend }{eng}, false, false},
	} {
		w := wrapBackend(&timedBackend{b: c.b, on: tracingOn()})
		_, progress := w.(campaign.ProgressBackend)
		_, warm := w.(campaign.WarmBackend)
		if progress != c.progress || warm != c.warm {
			t.Errorf("%s: wrapper offers progress=%v warm=%v, want %v %v", c.name, progress, warm, c.progress, c.warm)
		}
	}

	spec := campaign.RunSpec{Benchmark: "gcc", Instructions: 3_000}
	want, err := campaign.Execute(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	tb := &timedBackend{b: campaign.NewEngine(1), on: tracingOn()}
	w := wrapBackend(tb)
	ctx := context.Background()
	viaProgress, err := w.(campaign.ProgressBackend).RunAllProgress(ctx, []campaign.RunSpec{spec}, nil)
	if err != nil {
		t.Fatal(err)
	}
	spec.Instructions++ // a unit the engine has not cached yet
	viaWarm, err := w.(campaign.WarmBackend).RunAllWarm(ctx, []campaign.RunSpec{spec}, 1_000, nil)
	if err != nil {
		t.Fatal(err)
	}
	if digestOf(viaProgress[0]) != digestOf(want) || viaWarm[0].Committed != spec.Instructions {
		t.Error("the wrapped backend changed the results")
	}
	if n := len(tb.calls.take()); n != 2 {
		t.Errorf("timed %d batches, want 2", n)
	}
}

func TestWrapStoreForwardsOptionalInterfaces(t *testing.T) {
	journal, err := cluster.OpenJournal(t.TempDir(), wal.Options{SyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer journal.Close()
	ts := &timedStore{s: journal, on: tracingOn()}
	w := wrapStore(ts)
	cs, ckpt := w.(cluster.CheckpointStore)
	_, stats := w.(walStatser)
	if !ckpt || !stats {
		t.Fatalf("wrapped journal offers checkpoints=%v stats=%v, want both", ckpt, stats)
	}
	if err := w.CampaignEnqueued("c1", "r1", campaign.PriorityBulk, []campaign.RunSpec{{Benchmark: "gcc"}}); err != nil {
		t.Fatal(err)
	}
	if err := cs.JobCheckpoint("c1", "k1", []byte("state")); err != nil {
		t.Fatal(err)
	}
	if err := w.CampaignFinished("c1", ""); err != nil {
		t.Fatal(err)
	}
	if len(ts.enqueue.take()) != 1 || len(ts.checkpoint.take()) != 1 || len(ts.finish.take()) != 1 {
		t.Error("want one timed enqueue, checkpoint and finish")
	}
	plain := wrapStore(&timedStore{s: struct{ cluster.JobStore }{journal}, on: tracingOn()})
	if _, ok := plain.(cluster.CheckpointStore); ok {
		t.Error("wrapper offers checkpoints its store lacks")
	}
	if _, ok := plain.(walStatser); ok {
		t.Error("wrapper offers WAL stats its store lacks")
	}
}

func TestTimedTransportPairsLeasesWithCompletions(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/jobs/lease" {
			json.NewEncoder(w).Encode(cluster.LeaseResponse{Jobs: []cluster.Job{{ID: 42, Spec: campaign.RunSpec{Benchmark: "gcc"}}}})
			return
		}
		io.WriteString(w, "{}")
	}))
	defer srv.Close()
	tt := &timedTransport{rt: srv.Client().Transport, on: tracingOn()}
	rt := wrapTransport(tt)
	if _, ok := rt.(closeIdler); !ok {
		t.Error("wrapper hides the transport's CloseIdleConnections")
	}
	client := &http.Client{Transport: rt}
	post := func(path string, body any) []byte {
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := client.Post(srv.URL+path, "application/json", bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	var lease cluster.LeaseResponse
	if err := json.Unmarshal(post("/jobs/lease", cluster.LeaseRequest{WorkerID: "w"}), &lease); err != nil || len(lease.Jobs) != 1 || lease.Jobs[0].ID != 42 {
		t.Fatalf("the worker's view of the lease: %+v, %v", lease, err)
	}
	post("/jobs/complete", cluster.CompleteRequest{WorkerID: "w", Results: []cluster.JobResult{{JobID: 42}}})
	if s := tt.take(); s.leases != 1 || len(s.complete) != 1 || len(s.execute) != 1 {
		t.Errorf("transport saw %+v, want one lease, completion and execution", s)
	}
	bare := wrapTransport(&timedTransport{rt: struct{ http.RoundTripper }{http.DefaultTransport}, on: tracingOn()})
	if _, ok := bare.(closeIdler); ok {
		t.Error("wrapper offers CloseIdleConnections its transport lacks")
	}
}

func TestTimedHandlerPassesWriterThrough(t *testing.T) {
	rec := httptest.NewRecorder()
	var got http.ResponseWriter
	h := &timedHandler{h: http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) { got = w }), on: tracingOn()}
	req := httptest.NewRequest(http.MethodPost, "/run", nil)
	req.Header.Set(requestHeader, "7")
	h.ServeHTTP(rec, req)
	if got != http.ResponseWriter(rec) {
		t.Error("the service got a different ResponseWriter")
	}
	if _, ok := h.take()[7]; !ok {
		t.Error("request 7 was not timed")
	}
}

func TestWrapEvaluatorKeepsResults(t *testing.T) {
	spec := explore.SearchSpec{Seed: 3, Workloads: []string{"gcc"}, Instructions: 2_000,
		Budget: explore.BudgetSpec{Population: 3, MaxGenerations: 2}}
	search := func(ev explore.Evaluator) *explore.Result {
		res, err := (&explore.Explorer{Evaluator: ev, Log: quietLog}).Run(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain := search(explore.BackendEvaluator{Backend: campaign.NewEngine(1)})
	var calls durations
	ev := wrapEvaluator(explore.BackendEvaluator{Backend: campaign.NewEngine(1)}, &calls)
	if _, ok := ev.(warmSharer); !ok {
		t.Error("wrapper hides the engine's warm-up counters")
	}
	traced := search(ev)
	if digestOf(traced) != digestOf(plain) || traced.Exec != plain.Exec {
		t.Error("the wrapped evaluator changed the search")
	}
	if len(calls.take()) == 0 {
		t.Error("no generation was timed")
	}
}

func TestBenchmarkJSONListsTheseMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var b struct {
		Workloads []entry `json:"workloads"`
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	slices.Sort(names)
	if !slices.Equal(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark has %v", names, workloadNames())
	}
	for _, c := range []struct {
		key  string
		got  []entry
		want []metric
	}{{"end_to_end", b.EndToEnd, endToEnd}, {"per_layer", b.PerLayer, perLayer}} {
		if len(c.got) != len(c.want) {
			t.Errorf("BENCHMARK.json %s has %d metrics, the benchmark reports %d", c.key, len(c.got), len(c.want))
			continue
		}
		for i, m := range c.want {
			if c.got[i] != (entry{m.name, m.unit}) {
				t.Errorf("BENCHMARK.json %s[%d] = %v, the benchmark reports %s in %s", c.key, i, c.got[i], m.name, m.unit)
			}
		}
	}
}

func TestWorkloadsRunCorrectly(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload for a second, untraced and traced")
	}
	for _, name := range workloadNames() {
		for _, trace := range []int{0, 1} {
			res, err := benchmark(name, 1, 1, trace, t.TempDir())
			if err != nil {
				t.Fatalf("%s, trace %d: %v", name, trace, err)
			}
			if !res.Correct {
				t.Errorf("%s, trace %d: %d of %d checks failed", name, trace, res.Failed, res.Attempted)
			}
		}
	}
}
