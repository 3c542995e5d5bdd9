package cluster

import (
	"bytes"
	"context"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"galsim/internal/campaign"
	"galsim/internal/snapshot"
	"galsim/internal/telemetry"
	"galsim/internal/timeline"
	"galsim/internal/wal"
)

// ckptSpec is the long-job spec the checkpoint tests share.
func ckptSpec() campaign.RunSpec {
	return campaign.RunSpec{Benchmark: "gcc", Machine: "gals", Instructions: 20_000}.Canonical()
}

// captureCheckpoint runs the spec's prefix for real and returns an encoded
// checkpoint at the given commit count — exactly what a worker posts.
func captureCheckpoint(t *testing.T, spec campaign.RunSpec, at uint64) []byte {
	t.Helper()
	var blob []byte
	_, err := campaign.ExecuteOpts(spec, campaign.ExecOpts{
		CheckpointEvery: at,
		OnSnapshot: func(sn *snapshot.Snapshot) {
			if sn.Committed == at {
				b, err := sn.EncodeBytes()
				if err != nil {
					t.Fatal(err)
				}
				blob = b
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if blob == nil {
		t.Fatalf("no checkpoint captured at %d", at)
	}
	return blob
}

// TestCheckpointStateMachine pins the coordinator's checkpoint protocol with
// a fake clock: only the lease holder may checkpoint, an accepted checkpoint
// extends the lease, a re-lease after worker loss carries the checkpoint,
// and the resumed execution is byte-identical to a straight run.
func TestCheckpointStateMachine(t *testing.T) {
	clock := newFakeClock()
	c := NewCoordinator(Config{LeaseTTL: time.Minute, MaxAttempts: 5, Now: clock.Now})
	spec := ckptSpec()
	straight, err := campaign.Execute(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	camp, err := c.submit([]campaign.RunSpec{spec}, "", telemetry.TraceContext{}, nil, campaign.PriorityBulk)
	if err != nil {
		t.Fatal(err)
	}
	jobs, _ := c.tryLease("w1", 1, campaign.CacheStats{})
	if len(jobs) != 1 {
		t.Fatal("initial lease failed")
	}
	if len(jobs[0].Checkpoint) != 0 {
		t.Error("fresh job carries a checkpoint")
	}
	blob := captureCheckpoint(t, spec, 8_000)

	// A worker that does not hold the lease is not believed.
	if c.checkpoint(CheckpointRequest{WorkerID: "w2", JobID: jobs[0].ID, Committed: 8_000, Snapshot: blob}) {
		t.Error("checkpoint accepted from a non-holder")
	}
	// The holder checkpoints 59s in; the original lease would expire at 60s,
	// but an accepted checkpoint is proof of life and renews it.
	clock.Advance(59 * time.Second)
	if !c.checkpoint(CheckpointRequest{WorkerID: "w1", JobID: jobs[0].ID, Committed: 8_000, Snapshot: blob}) {
		t.Fatal("holder's checkpoint rejected")
	}
	clock.Advance(30 * time.Second) // 89s: past the original deadline, inside the renewed one
	if early, _ := c.tryLease("w2", 1, campaign.CacheStats{}); len(early) != 0 {
		t.Fatal("checkpointing job expired despite renewed lease")
	}
	// w1 goes silent; the renewed lease runs out and w2 inherits the job
	// with the checkpoint attached.
	clock.Advance(31 * time.Second)
	release, _ := c.tryLease("w2", 1, campaign.CacheStats{})
	if len(release) != 1 {
		t.Fatal("expired job not re-leased")
	}
	if !bytes.Equal(release[0].Checkpoint, blob) {
		t.Fatal("re-leased job does not carry the posted checkpoint")
	}
	// The zombie's late checkpoint is now rejected.
	if c.checkpoint(CheckpointRequest{WorkerID: "w1", JobID: jobs[0].ID, Committed: 16_000, Snapshot: blob}) {
		t.Error("zombie checkpoint accepted after re-lease")
	}
	// w2 resumes from the checkpoint; the result must be byte-identical to
	// the straight run.
	snap, err := snapshot.DecodeBytes(release[0].Checkpoint)
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := campaign.ExecuteOpts(release[0].Spec, campaign.ExecOpts{Resume: snap})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mustJSON(t, resumed), mustJSON(t, straight)) {
		t.Error("resumed execution differs from straight run")
	}
	if acc := c.complete("w2", []JobResult{{JobID: release[0].ID, Stats: &resumed}}, campaign.CacheStats{}); acc != 1 {
		t.Fatalf("completion rejected (accepted=%d)", acc)
	}
	select {
	case <-camp.done:
	default:
		t.Fatal("campaign not settled")
	}
	if !bytes.Equal(mustJSON(t, camp.results[0]), mustJSON(t, straight)) {
		t.Error("campaign result differs from straight run")
	}
}

// TestCheckpointSurvivesCoordinatorCrash drives the durable path end to end:
// a checkpoint journaled through the WAL store must come back from Recover
// after a coordinator restart, re-leased jobs must carry it, and the resumed
// campaign must produce the stats the original RunAll would have.
func TestCheckpointSurvivesCoordinatorCrash(t *testing.T) {
	dir := t.TempDir()
	spec := ckptSpec()
	straight, err := campaign.Execute(spec, nil)
	if err != nil {
		t.Fatal(err)
	}

	store1, err := OpenJournal(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	clock := newFakeClock()
	c1 := NewCoordinator(Config{LeaseTTL: time.Minute, Now: clock.Now, Store: store1})
	ts := httptest.NewServer(c1.Handler())
	defer ts.Close()
	if _, err := c1.submit([]campaign.RunSpec{spec}, "req-ckpt", telemetry.TraceContext{}, nil, campaign.PriorityBulk); err != nil {
		t.Fatal(err)
	}
	jobs, _ := c1.tryLease("w1", 1, campaign.CacheStats{})
	if len(jobs) != 1 {
		t.Fatal("lease failed")
	}
	blob := captureCheckpoint(t, spec, 8_000)

	// A corrupt checkpoint is rejected at the door with a typed reason.
	bad := append([]byte(nil), blob...)
	bad[len(bad)-1] ^= 0xFF
	var resp CheckpointResponse
	if code := doJSON(t, "POST", ts.URL+"/jobs/checkpoint",
		CheckpointRequest{WorkerID: "w1", JobID: jobs[0].ID, Committed: 8_000, Snapshot: bad}, nil); code != http.StatusBadRequest {
		t.Fatalf("corrupt checkpoint: HTTP %d, want 400", code)
	}
	// The good one lands over the real endpoint and reaches the journal.
	if code := doJSON(t, "POST", ts.URL+"/jobs/checkpoint",
		CheckpointRequest{WorkerID: "w1", JobID: jobs[0].ID, Committed: 8_000, Snapshot: blob}, &resp); code != 200 || !resp.Accepted {
		t.Fatalf("checkpoint post: HTTP %d accepted=%v", code, resp.Accepted)
	}

	// Crash: the coordinator process dies (we just abandon c1) and the store
	// is reopened from disk, exactly as a restarted galsim-fleet would.
	if err := store1.Close(); err != nil {
		t.Fatal(err)
	}
	store2, err := OpenJournal(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	recs, err := store2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("recovered %d campaigns, want 1", len(recs))
	}
	if got := len(recs[0].Checkpoints); got != 1 {
		t.Fatalf("recovered %d checkpoints, want 1", got)
	}
	if !bytes.Equal(recs[0].Checkpoints[spec.Key()], blob) {
		t.Fatal("recovered checkpoint differs from the posted one")
	}

	c2 := NewCoordinator(Config{LeaseTTL: time.Minute, Now: clock.Now, Store: store2})
	resumedCamps, err := c2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(resumedCamps) != 1 {
		t.Fatalf("coordinator resumed %d campaigns, want 1", len(resumedCamps))
	}
	release, _ := c2.tryLease("w2", 1, campaign.CacheStats{})
	if len(release) != 1 || !bytes.Equal(release[0].Checkpoint, blob) {
		t.Fatal("re-created job does not carry the journaled checkpoint")
	}
	snap, err := snapshot.DecodeBytes(release[0].Checkpoint)
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := campaign.ExecuteOpts(release[0].Spec, campaign.ExecOpts{Resume: snap})
	if err != nil {
		t.Fatal(err)
	}
	c2.complete("w2", []JobResult{{JobID: release[0].ID, Stats: &resumed}}, campaign.CacheStats{})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	stats, err := resumedCamps[0].Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mustJSON(t, stats), mustJSON(t, []any{straight})) {
		t.Error("resumed campaign stats differ from the straight run")
	}
}

// TestCheckpointResumeAfterWorkerLoss is the live chaos case: a real worker
// checkpointing on cadence is killed mid-job, and its successor must log
// "resuming from checkpoint" and still deliver stats byte-identical to a
// serial run. The lease runs on a fake clock that moves only after the
// first worker is gone, so it cannot expire before a checkpoint lands, however
// slow the host.
func TestCheckpointResumeAfterWorkerLoss(t *testing.T) {
	spec := campaign.RunSpec{Benchmark: "gcc", Machine: "gals", Instructions: 400_000}.Canonical()
	clock := newFakeClock()
	coord := NewCoordinator(Config{LeaseTTL: time.Minute, MaxAttempts: 25, Now: clock.Now})
	ts := httptest.NewServer(coord.Handler())
	defer ts.Close()
	// accepted is the committed count of the newest checkpoint the
	// coordinator took from a lease holder.
	accepted := func() uint64 {
		coord.mu.Lock()
		defer coord.mu.Unlock()
		var n uint64
		for _, j := range coord.jobs {
			n = max(n, j.ckptCommitted)
		}
		return n
	}

	newWorker := func(id string, logs *syncBuffer) (context.CancelFunc, *sync.WaitGroup) {
		w := &Worker{
			Coordinator:     ts.URL,
			ID:              id,
			Engine:          campaign.NewEngine(1),
			Slots:           1,
			PollInterval:    10 * time.Millisecond,
			CheckpointEvery: 10_000,
			Log:             slog.New(slog.NewTextHandler(logs, nil)),
		}
		ctx, cancel := context.WithCancel(context.Background())
		var wg sync.WaitGroup
		wg.Add(1)
		go func() { defer wg.Done(); w.Run(ctx) }() //nolint:errcheck
		return cancel, &wg
	}

	done := make(chan error, 1)
	resCh := make(chan []campaign.UnitResult, 1)
	go func() {
		res, err := campaign.RunSweepOn(context.Background(), coord,
			campaign.Sweep{Benchmarks: []string{"gcc"}, Machines: []string{"gals"}, Instructions: spec.Instructions})
		resCh <- res
		done <- err
	}()

	var logs1 syncBuffer
	cancel1, wg1 := newWorker("ck-w1", &logs1)
	// Kill the first worker once the coordinator holds two of its
	// checkpoints, then let its lease run out.
	waitFor(t, func() bool { return accepted() >= 20_000 }, "two accepted checkpoints")
	cancel1()
	wg1.Wait()
	clock.Advance(2 * time.Minute)

	var logs2 syncBuffer
	cancel2, wg2 := newWorker("ck-w2", &logs2)
	defer func() { cancel2(); wg2.Wait() }()

	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(120 * time.Second):
		t.Fatal("campaign did not finish after worker loss")
	}
	res := <-resCh
	st, err := campaign.Execute(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := campaign.UnitResult{Key: spec.Key(), Spec: spec, Summary: campaign.Summarize(spec, st)}
	if !bytes.Equal(mustJSON(t, res), mustJSON(t, []campaign.UnitResult{want})) {
		t.Error("results after checkpointed worker loss differ from serial execution")
	}
	if !strings.Contains(logs2.String(), "resuming from checkpoint") {
		t.Error("successor worker did not resume from the checkpoint (no resume log line)")
	}
}

// TestCheckpointingWorkerShipsSpans: a traced job that resumes from a
// checkpoint on a checkpointing worker ships its execute and simulate spans
// under its lease span, and its stats equal an untraced straight run. The
// first holder is simulated by hand (lease, one checkpoint, silence); the
// fake clock then expires its lease so a real worker inherits the job.
func TestCheckpointingWorkerShipsSpans(t *testing.T) {
	spans := timeline.NewSpanCollector(0)
	clock := newFakeClock()
	coord := NewCoordinator(Config{LeaseTTL: time.Minute, Now: clock.Now, Spans: spans})
	ts := httptest.NewServer(coord.Handler())
	defer ts.Close()
	spec := ckptSpec()
	straight, err := campaign.Execute(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	traceID := timeline.NewTraceID()
	camp, err := coord.submit([]campaign.RunSpec{spec}, "req-traced-ckpt",
		telemetry.TraceContext{TraceID: traceID, SpanID: timeline.NewSpanID()}, nil, campaign.PriorityBulk)
	if err != nil {
		t.Fatal(err)
	}
	jobs, _ := coord.tryLease("w1", 1, campaign.CacheStats{})
	if len(jobs) != 1 || jobs[0].TraceParent == "" {
		t.Fatalf("lease granted %d jobs (trace parent %q), want 1 traced job", len(jobs), jobs[0].TraceParent)
	}
	blob := captureCheckpoint(t, spec, 8_000)
	if !coord.checkpoint(CheckpointRequest{WorkerID: "w1", JobID: jobs[0].ID, Committed: 8_000, Snapshot: blob}) {
		t.Fatal("holder's checkpoint rejected")
	}
	clock.Advance(2 * time.Minute)

	var logs syncBuffer
	w := &Worker{
		Coordinator:     ts.URL,
		ID:              "w2",
		Engine:          campaign.NewEngine(1),
		Slots:           1,
		PollInterval:    10 * time.Millisecond,
		CheckpointEvery: 5_000,
		Log:             slog.New(slog.NewTextHandler(&logs, nil)),
	}
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); w.Run(ctx) }() //nolint:errcheck // exits via ctx cancellation
	defer func() { cancel(); wg.Wait() }()

	select {
	case <-camp.done:
	case <-time.After(60 * time.Second):
		t.Fatal("campaign did not finish on the successor worker")
	}
	if camp.err != nil {
		t.Fatal(camp.err)
	}
	if !bytes.Equal(mustJSON(t, camp.results[0]), mustJSON(t, straight)) {
		t.Error("traced resumed result differs from the untraced straight run")
	}
	if !strings.Contains(logs.String(), "resuming from checkpoint") {
		t.Error("successor worker did not resume from the checkpoint (no resume log line)")
	}

	// The successor's lease span, and its execute span under it with a
	// simulate child.
	var lease, exec timeline.Span
	waitFor(t, func() bool {
		got := spans.ForTrace(traceID)
		for _, sp := range got {
			if sp.Name == "job lease" && sp.Attrs["worker"] == "w2" {
				lease = sp
			}
		}
		for _, sp := range got {
			if sp.Name == "execute" && sp.Service == "worker w2" && lease.SpanID != "" && sp.ParentID == lease.SpanID {
				exec = sp
			}
		}
		for _, sp := range got {
			if sp.Name == "simulate" && exec.SpanID != "" && sp.ParentID == exec.SpanID {
				return true
			}
		}
		return false
	}, "the successor's lease, execute and simulate spans")
}

// TestJournalCheckpointLifecycle pins the store semantics in isolation:
// latest checkpoint wins, completion retires it, compaction keeps it for
// unfinished units, and unknown-type records from newer versions skip.
func TestJournalCheckpointLifecycle(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenJournal(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	specs := []campaign.RunSpec{
		{Benchmark: "gcc", Machine: "gals", Instructions: 10_000},
		{Benchmark: "swim", Machine: "gals", Instructions: 10_000},
	}
	for i := range specs {
		specs[i] = specs[i].Canonical()
	}
	if err := s.CampaignEnqueued("c1", "r1", campaign.PriorityBulk, specs); err != nil {
		t.Fatal(err)
	}
	k0, k1 := specs[0].Key(), specs[1].Key()
	if err := s.JobCheckpoint("c1", k0, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := s.JobCheckpoint("c1", k0, []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if err := s.JobCheckpoint("c1", k1, []byte("other")); err != nil {
		t.Fatal(err)
	}
	// Completion retires unit 1's checkpoint; a late zombie checkpoint for a
	// done unit is dropped.
	st, err := campaign.Execute(specs[1], nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.JobCompleted("c1", k1, &st); err != nil {
		t.Fatal(err)
	}
	if err := s.JobCheckpoint("c1", k1, []byte("zombie")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenJournal(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	recs, err := s2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("recovered %d campaigns, want 1", len(recs))
	}
	rec := recs[0]
	if got := string(rec.Checkpoints[k0]); got != "v2" {
		t.Errorf("checkpoint for unit 0 = %q, want the latest (v2)", got)
	}
	if _, ok := rec.Checkpoints[k1]; ok {
		t.Error("completed unit still has a checkpoint after replay")
	}
	if len(rec.Completed) != 1 {
		t.Errorf("recovered %d completions, want 1", len(rec.Completed))
	}
}
