package cluster

import (
	"bytes"
	"context"
	"testing"
	"time"

	"galsim/internal/campaign"
	"galsim/internal/machine"
	"galsim/internal/telemetry"
)

// triMachine is the user-authored 3-domain partitioning the acceptance
// criteria run end to end: merged front end, merged int+fp execution
// cluster, memory system alone.
func triMachine() machine.Spec {
	return machine.Spec{
		Name: "tri",
		Domains: []machine.DomainSpec{
			{Name: "front"},
			{Name: "exec", DVFS: machine.PolicyDynamic},
			{Name: "memsys"},
		},
		Assign: map[string]string{
			"fetch": "front", "decode": "front",
			"int": "exec", "fp": "exec",
			"mem": "memsys",
		},
	}
}

// TestFleetRunsCustomMachine: a sweep over a user-defined 3-domain
// MachineSpec (crossed with the built-in base reference) executed by a
// 3-worker fleet is byte-identical to serial execution, and the canonical
// specs inside the jobs keep cache keys stable fleet-wide.
func TestFleetRunsCustomMachine(t *testing.T) {
	sweep := campaign.Sweep{
		Benchmarks:   []string{"gcc", "swim"},
		Machines:     []string{"base"},
		MachineSpecs: []machine.Spec{triMachine()},
		SlowdownGrid: []map[string]float64{nil, {"exec": 1.5}, {"memsys": 2}},
		Instructions: 5_000,
	}
	units, stats, serial := serialReference(t, sweep)

	f := startFleet(t, Config{LeaseTTL: 5 * time.Second, MaxAttempts: 3}, 3, 1)
	got, err := f.coord.RunAll(context.Background(), units)
	if err != nil {
		t.Fatal(err)
	}
	for i := range stats {
		want := mustJSON(t, stats[i])
		have := mustJSON(t, got[i])
		if !bytes.Equal(want, have) {
			t.Fatalf("fleet unit %d (%s/%s) diverged from serial execution",
				i, units[i].MachineName(), units[i].WorkloadName())
		}
	}

	fleetResults, err := campaign.RunSweepOn(context.Background(), f.coord, sweep)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mustJSON(t, fleetResults), mustJSON(t, serial)) {
		t.Fatal("aggregated fleet results differ from serial aggregation")
	}

	// The tri machine travels as a canonical inline spec; the base units
	// keep the classic name-keyed identity.
	seenTri, seenBase := false, false
	for _, r := range fleetResults {
		switch r.Summary.Machine {
		case "tri":
			seenTri = true
			if r.Spec.MachineSpec == nil || r.Spec.MachineSpec.Digest() != triMachine().Digest() {
				t.Errorf("tri unit lost its topology in flight: %+v", r.Spec)
			}
		case "base":
			seenBase = true
			if r.Spec.MachineSpec != nil || r.Spec.Machine != "base" {
				t.Errorf("base unit gained an inline spec: %+v", r.Spec)
			}
		}
	}
	if !seenTri || !seenBase {
		t.Fatalf("machine axis incomplete: tri=%v base=%v", seenTri, seenBase)
	}

	// Re-running the same sweep returns byte-identical results, and no
	// worker ever simulates one content address twice — the custom
	// machine's cache key is stable across dispatches. (A repeat job may
	// land on a *different* worker than the first run, so the fleet-wide
	// miss total can legitimately grow; per-worker misses are bounded by
	// the number of distinct keys.)
	again, err := campaign.RunSweepOn(context.Background(), f.coord, sweep)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mustJSON(t, again), mustJSON(t, fleetResults)) {
		t.Fatal("repeat sweep returned different bytes")
	}
	distinct := map[string]bool{}
	for _, u := range units {
		distinct[u.Key()] = true
	}
	for i, e := range f.engines {
		if m := int(e.Stats().Misses); m > len(distinct) {
			t.Errorf("worker %d simulated %d units for %d distinct keys", i, m, len(distinct))
		}
	}
}

// TestRefusedInlineMachineTextMatchesEngine: the coordinator refuses an
// invalid inline-machine unit with the text the local engine reports for
// the same batch, the unit labelled by its machine's name.
func TestRefusedInlineMachineTextMatchesEngine(t *testing.T) {
	tri := triMachine()
	specs := []campaign.RunSpec{
		{Benchmark: "li", Machine: "gals", Instructions: 2_000},
		{Benchmark: "gcc", MachineSpec: &tri, Instructions: 2_000, Slowdowns: map[string]float64{"bogus": 2}},
	}
	const want = `campaign: unit 1 (tri/gcc): campaign: unknown clock domain "bogus" for machine "tri" in slowdowns (its domains: [front exec memsys], or "all" for a uniform slowdown)`
	f := startFleet(t, Config{}, 0, 0)
	for name, b := range map[string]campaign.Backend{"engine": campaign.NewEngine(1), "coordinator": f.coord} {
		if _, err := b.RunAll(context.Background(), specs); err == nil || err.Error() != want {
			t.Errorf("%s:\n got %v\nwant %s", name, err, want)
		}
	}
}

// TestFailedInlineMachineJobLabel: a job of an inline machine that fails on
// every worker is labelled by the machine's name, as the engine labels it.
func TestFailedInlineMachineJobLabel(t *testing.T) {
	clock := newFakeClock()
	c := NewCoordinator(Config{LeaseTTL: time.Minute, MaxAttempts: 5, Now: clock.Now})
	c.join(JoinRequest{WorkerID: "w1"})
	tri := triMachine()
	u, err := campaign.RunSpec{Benchmark: "gcc", MachineSpec: &tri, Instructions: 2_000}.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	camp, err := c.submit([]campaign.RunSpec{u.Spec()}, []string{u.Key()}, "", telemetry.TraceContext{}, nil, campaign.PriorityBulk)
	if err != nil {
		t.Fatal(err)
	}
	jobs, _ := c.tryLease("w1", 1, campaign.CacheStats{})
	if len(jobs) != 1 {
		t.Fatal("lease failed")
	}
	c.complete("w1", []JobResult{{JobID: jobs[0].ID, Error: "disk on fire"}}, campaign.CacheStats{})
	<-camp.done
	const want = "cluster: unit 0 (tri/gcc) failed on 1 worker(s); last error from w1: disk on fire"
	if camp.err == nil || camp.err.Error() != want {
		t.Errorf("campaign error = %v, want %q", camp.err, want)
	}
}
