package cluster

import (
	"bytes"
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"galsim/internal/campaign"
	"galsim/internal/pipeline"
	"galsim/internal/telemetry"
)

// TestWorkerLossMidSweep kills one of three workers while the golden sweep
// is in flight: the coordinator must re-lease whatever the dead worker
// held, and the merged output must still be byte-identical to serial
// execution.
func TestWorkerLossMidSweep(t *testing.T) {
	sweep := goldenSweep()
	_, _, serialResults := serialReference(t, sweep)
	// A short TTL keeps the failover fast; the generous attempt budget
	// keeps a slow CI machine's spurious expiries from failing the
	// campaign (duplicated completions are harmless — first result wins).
	f := startFleet(t, Config{LeaseTTL: 400 * time.Millisecond, MaxAttempts: 25}, 3, 1)
	type outcome struct {
		results []campaign.UnitResult
		err     error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := campaign.RunSweepOn(context.Background(), f.coord, sweep)
		done <- outcome{res, err}
	}()
	// Let the sweep get going, then yank a worker mid-flight.
	waitFor(t, func() bool { return f.coord.Stats().JobsDone >= 2 }, "first completions")
	f.kill(0)
	select {
	case out := <-done:
		if out.err != nil {
			t.Fatal(out.err)
		}
		if !bytes.Equal(mustJSON(t, out.results), mustJSON(t, serialResults)) {
			t.Error("results after worker loss differ from serial execution")
		}
	case <-time.After(60 * time.Second):
		t.Fatal("sweep did not finish after worker loss")
	}
}

// TestExpiredLeaseIsRetried leases jobs as a phantom worker that never
// completes them, guaranteeing the re-lease path runs: the campaign can
// only finish once the coordinator expires those leases and hands the jobs
// to the real fleet.
func TestExpiredLeaseIsRetried(t *testing.T) {
	f := startFleet(t, Config{LeaseTTL: 300 * time.Millisecond, MaxAttempts: 25}, 0, 0)
	sweep := campaign.Sweep{
		Benchmarks:   []string{"gcc", "swim"},
		Machines:     []string{"base", "gals"},
		Instructions: 4_000,
	}
	units, serialStats, _ := serialReference(t, sweep)
	type outcome struct {
		stats []pipeline.Stats
		err   error
	}
	done := make(chan outcome, 1)
	go func() {
		stats, err := f.coord.RunAll(context.Background(), units)
		done <- outcome{stats, err}
	}()
	waitFor(t, func() bool { return f.coord.Stats().JobsPending >= len(units) }, "jobs enqueued")
	// The phantom grabs two jobs over the real HTTP endpoint and vanishes.
	var lease LeaseResponse
	if code := doJSON(t, "POST", f.ts.URL+"/jobs/lease",
		LeaseRequest{WorkerID: "phantom", Slots: 2}, &lease); code != 200 {
		t.Fatalf("phantom lease: HTTP %d", code)
	}
	if len(lease.Jobs) != 2 {
		t.Fatalf("phantom leased %d jobs, want 2", len(lease.Jobs))
	}
	// Now bring up the real workers; they can finish only via expiry.
	f.addWorker(1)
	f.addWorker(1)
	select {
	case out := <-done:
		if out.err != nil {
			t.Fatal(out.err)
		}
		if !bytes.Equal(mustJSON(t, out.stats), mustJSON(t, serialStats)) {
			t.Error("results after lease expiry differ from serial execution")
		}
	case <-time.After(60 * time.Second):
		t.Fatal("campaign did not finish after lease expiry")
	}
	if st := f.coord.Stats(); st.LeaseExpiries < 2 {
		t.Errorf("lease expiries = %d, want >= 2 (the phantom's two jobs)", st.LeaseExpiries)
	}
}

// fakeClock is a manually advanced coordinator clock.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{now: time.Unix(1_000_000, 0)} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// TestLeaseExpiryFakeClock pins the lease state machine without real
// sleeps: a lease is exclusive until exactly its TTL passes, then the job
// re-leases to another worker; a stale completion from the original holder
// is still accepted (results are deterministic — first result wins), and
// the duplicate from the re-lease is ignored.
func TestLeaseExpiryFakeClock(t *testing.T) {
	clock := newFakeClock()
	c := NewCoordinator(Config{LeaseTTL: time.Minute, Now: clock.Now})
	spec := campaign.RunSpec{Benchmark: "gcc", Instructions: 2_000}.Canonical()
	camp, err := c.submit([]campaign.RunSpec{spec}, nil, "", telemetry.TraceContext{}, nil, campaign.PriorityBulk)
	if err != nil {
		t.Fatal(err)
	}
	jobs, _ := c.tryLease("w1", 1, campaign.CacheStats{})
	if len(jobs) != 1 {
		t.Fatalf("leased %d jobs, want 1", len(jobs))
	}
	if again, _ := c.tryLease("w2", 1, campaign.CacheStats{}); len(again) != 0 {
		t.Fatalf("job double-leased while held: %v", again)
	}
	clock.Advance(59 * time.Second)
	if early, _ := c.tryLease("w2", 1, campaign.CacheStats{}); len(early) != 0 {
		t.Fatalf("lease expired %s early", time.Second)
	}
	clock.Advance(2 * time.Second)
	release, _ := c.tryLease("w2", 1, campaign.CacheStats{})
	if len(release) != 1 || release[0].ID != jobs[0].ID {
		t.Fatalf("expired job not re-leased: %v", release)
	}
	if st := c.Stats(); st.LeaseExpiries != 1 {
		t.Errorf("lease expiries = %d, want 1", st.LeaseExpiries)
	}
	st := pipeline.Stats{Committed: 7}
	if acc := c.complete("w1", []JobResult{{JobID: jobs[0].ID, Stats: &st}}, campaign.CacheStats{}); acc != 1 {
		t.Errorf("stale-but-valid completion rejected (accepted=%d)", acc)
	}
	select {
	case <-camp.done:
	default:
		t.Fatal("campaign not settled after completion")
	}
	if camp.err != nil || camp.results[0].Committed != 7 {
		t.Errorf("campaign state = err %v, committed %d", camp.err, camp.results[0].Committed)
	}
	if acc := c.complete("w2", []JobResult{{JobID: jobs[0].ID, Stats: &st}}, campaign.CacheStats{}); acc != 0 {
		t.Errorf("duplicate completion accepted (accepted=%d)", acc)
	}
}

// TestLeaseExpiryExhaustsAttempts: a job whose workers keep going silent
// must not circulate forever — MaxAttempts expiries fail its campaign.
func TestLeaseExpiryExhaustsAttempts(t *testing.T) {
	clock := newFakeClock()
	c := NewCoordinator(Config{LeaseTTL: time.Minute, MaxAttempts: 2, Now: clock.Now})
	spec := campaign.RunSpec{Benchmark: "gcc", Instructions: 2_000}.Canonical()
	camp, err := c.submit([]campaign.RunSpec{spec}, nil, "", telemetry.TraceContext{}, nil, campaign.PriorityBulk)
	if err != nil {
		t.Fatal(err)
	}
	if jobs, _ := c.tryLease("w1", 1, campaign.CacheStats{}); len(jobs) != 1 {
		t.Fatal("initial lease failed")
	}
	clock.Advance(61 * time.Second)
	if jobs, _ := c.tryLease("w2", 1, campaign.CacheStats{}); len(jobs) != 1 {
		t.Fatal("first re-lease failed")
	}
	clock.Advance(61 * time.Second)
	if jobs, _ := c.tryLease("w3", 1, campaign.CacheStats{}); len(jobs) != 0 {
		t.Fatal("job leased beyond its attempt budget")
	}
	select {
	case <-camp.done:
	default:
		t.Fatal("campaign not settled after attempts ran out")
	}
	if camp.err == nil || !strings.Contains(camp.err.Error(), "abandoned") {
		t.Errorf("campaign error = %v, want abandonment", camp.err)
	}
}

// TestStaleFailureDoesNotUnwindActiveLease: a failure report from a worker
// whose lease already expired must not disturb the current holder's run —
// one slow-and-flaky worker must not burn the attempt budget of work a
// healthy worker is computing.
func TestStaleFailureDoesNotUnwindActiveLease(t *testing.T) {
	clock := newFakeClock()
	c := NewCoordinator(Config{LeaseTTL: time.Minute, MaxAttempts: 2, Now: clock.Now})
	spec := campaign.RunSpec{Benchmark: "gcc", Instructions: 2_000}.Canonical()
	camp, err := c.submit([]campaign.RunSpec{spec}, nil, "", telemetry.TraceContext{}, nil, campaign.PriorityBulk)
	if err != nil {
		t.Fatal(err)
	}
	jobs, _ := c.tryLease("w1", 1, campaign.CacheStats{})
	if len(jobs) != 1 {
		t.Fatal("initial lease failed")
	}
	clock.Advance(61 * time.Second)
	if again, _ := c.tryLease("w2", 1, campaign.CacheStats{}); len(again) != 1 {
		t.Fatal("expired job not re-leased")
	}
	// w1 wakes up and reports a failure for the lease it lost.
	if acc := c.complete("w1", []JobResult{{JobID: jobs[0].ID, Error: "stale boom"}}, campaign.CacheStats{}); acc != 0 {
		t.Errorf("stale failure accepted (accepted=%d)", acc)
	}
	if st := c.Stats(); st.JobFailures != 0 || st.JobsInFlight != 1 {
		t.Errorf("stale failure disturbed the fleet: %+v", st)
	}
	// The live holder's result still lands, with attempts untouched
	// (attempts=1 from the expiry; a burned attempt would have hit
	// MaxAttempts=2 and failed the campaign).
	st := pipeline.Stats{Committed: 9}
	if acc := c.complete("w2", []JobResult{{JobID: jobs[0].ID, Stats: &st}}, campaign.CacheStats{}); acc != 1 {
		t.Errorf("live completion rejected (accepted=%d)", acc)
	}
	select {
	case <-camp.done:
	default:
		t.Fatal("campaign not settled")
	}
	if camp.err != nil || camp.results[0].Committed != 9 {
		t.Errorf("campaign state = err %v, committed %d", camp.err, camp.results[0].Committed)
	}
}

// TestFailedJobRetriesOnOtherWorkers: a worker-reported failure re-queues
// the job excluding that worker; once every live worker has failed it, the
// campaign fails with the last error.
func TestFailedJobRetriesOnOtherWorkers(t *testing.T) {
	clock := newFakeClock()
	c := NewCoordinator(Config{LeaseTTL: time.Minute, MaxAttempts: 5, Now: clock.Now})
	// Register both workers before anything fails, as a joining fleet does.
	c.join(JoinRequest{WorkerID: "w1"})
	c.join(JoinRequest{WorkerID: "w2"})
	spec := campaign.RunSpec{Benchmark: "gcc", Instructions: 2_000}.Canonical()
	camp, err := c.submit([]campaign.RunSpec{spec}, nil, "", telemetry.TraceContext{}, nil, campaign.PriorityBulk)
	if err != nil {
		t.Fatal(err)
	}
	jobs, _ := c.tryLease("w1", 1, campaign.CacheStats{})
	if len(jobs) != 1 {
		t.Fatal("initial lease failed")
	}
	c.complete("w1", []JobResult{{JobID: jobs[0].ID, Error: "disk on fire"}}, campaign.CacheStats{})
	if retry, _ := c.tryLease("w1", 1, campaign.CacheStats{}); len(retry) != 0 {
		t.Fatal("job re-leased to the worker that just failed it")
	}
	retry, _ := c.tryLease("w2", 1, campaign.CacheStats{})
	if len(retry) != 1 || retry[0].ID != jobs[0].ID {
		t.Fatalf("job not re-leased to the other worker: %v", retry)
	}
	c.complete("w2", []JobResult{{JobID: jobs[0].ID, Error: "also on fire"}}, campaign.CacheStats{})
	select {
	case <-camp.done:
	default:
		t.Fatal("campaign not settled after every worker failed the job")
	}
	if camp.err == nil || !strings.Contains(camp.err.Error(), "also on fire") {
		t.Errorf("campaign error = %v, want the last worker error", camp.err)
	}
	if st := c.Stats(); st.JobFailures != 2 {
		t.Errorf("job failures = %d, want 2", st.JobFailures)
	}
}
