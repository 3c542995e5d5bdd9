package galsim

import (
	"context"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
)

// phasedProfile alternates a heavily integer kernel with a heavily FP one:
// the non-stationary behaviour application-driven DVFS exists to exploit.
func phasedProfile(perPhase uint64) *WorkloadProfile {
	return &WorkloadProfile{
		Name: "int-then-fp",
		Phases: []WorkloadPhase{
			{Benchmark: "ijpeg", Instructions: perPhase},
			{Benchmark: "fpppp", Instructions: perPhase},
		},
	}
}

// TestTraceRoundTripDeterminism is the acceptance criterion for the
// record/replay subsystem: a recorded synthetic run, replayed through an
// identically configured machine, must reproduce the original Result
// exactly — same Committed, SimSeconds, EnergyJoules, IPC and everything
// else the run measures.
func TestTraceRoundTripDeterminism(t *testing.T) {
	dir := t.TempDir()
	for _, machine := range []Machine{Base, GALS} {
		t.Run(string(machine), func(t *testing.T) {
			path := filepath.Join(dir, string(machine)+".trace")
			orig, err := Run(Options{
				Benchmark:    "gcc",
				Machine:      machine,
				Instructions: 20_000,
				RecordTrace:  path,
			})
			if err != nil {
				t.Fatal(err)
			}
			replayed, err := Run(Options{Trace: path, Machine: machine})
			if err != nil {
				t.Fatal(err)
			}
			if replayed.Committed != orig.Committed ||
				replayed.SimSeconds != orig.SimSeconds ||
				replayed.EnergyJoules != orig.EnergyJoules ||
				replayed.IPC != orig.IPC {
				t.Errorf("headline metrics diverged:\noriginal %+v\nreplayed %+v", orig, replayed)
			}
			// Stronger than the acceptance bar: every field except the
			// workload's display name must match bit for bit.
			orig.Benchmark, replayed.Benchmark = "", ""
			if !reflect.DeepEqual(orig, replayed) {
				t.Errorf("full Result diverged:\noriginal %+v\nreplayed %+v", orig, replayed)
			}

			// Fast-forward: capturing a snapshot mid-replay, and resuming
			// the replay from it, must each reproduce the straight replay.
			snap := filepath.Join(dir, string(machine)+".snap")
			captured, err := Run(Options{Trace: path, Machine: machine, Warmup: 5_000, SnapshotOut: snap})
			if err != nil {
				t.Fatal(err)
			}
			resumed, err := Run(Options{Trace: path, Machine: machine, SnapshotIn: snap})
			if err != nil {
				t.Fatal(err)
			}
			replayed.Benchmark = "replay:gcc"
			for name, r := range map[string]Result{"capturing": captured, "resumed": resumed} {
				if !reflect.DeepEqual(r, replayed) {
					t.Errorf("%s replay diverged:\nstraight %+v\n%s %+v", name, replayed, name, r)
				}
			}
		})
	}
}

// TestTraceReplayDefaultsToRecordedLength pins the replay convenience:
// Instructions zero replays exactly what was recorded.
func TestTraceReplayDefaultsToRecordedLength(t *testing.T) {
	path := filepath.Join(t.TempDir(), "short.trace")
	if _, err := Run(Options{Benchmark: "adpcm", Instructions: 5_000, RecordTrace: path}); err != nil {
		t.Fatal(err)
	}
	r, err := Run(Options{Trace: path})
	if err != nil {
		t.Fatal(err)
	}
	if r.Committed != 5_000 {
		t.Errorf("replay committed %d, want the recorded 5000", r.Committed)
	}
	if r.Benchmark != "replay:adpcm" {
		t.Errorf("replay result benchmark = %q", r.Benchmark)
	}
}

// TestPhasedProfileDynamicDVFS is the acceptance criterion for
// application-driven scaling on non-stationary workloads: a phased custom
// profile under the online DVFS controller must actually retune, and must
// end with the domains at *different* slowdowns (per-domain scaling, which
// only the GALS machine can do).
func TestPhasedProfileDynamicDVFS(t *testing.T) {
	r, err := Run(Options{
		Profile:      phasedProfile(30_000),
		Machine:      GALS,
		Instructions: 90_000,
		DynamicDVFS:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Benchmark != "int-then-fp" {
		t.Errorf("result benchmark = %q, want the profile name", r.Benchmark)
	}
	if r.Retunes == 0 {
		t.Fatal("DynamicDVFS on a phased workload performed no retunes")
	}
	slows := map[float64]bool{}
	for _, s := range r.FinalSlowdowns {
		slows[s] = true
	}
	if len(slows) < 2 {
		t.Errorf("final slowdowns identical across domains: %v (application-driven per-domain scaling should differentiate them)", r.FinalSlowdowns)
	}
}

// TestCustomProfileRunManyCacheHit checks user-defined workloads join the
// shared campaign cache by content: issuing the same profile twice
// simulates once.
func TestCustomProfileRunManyCacheHit(t *testing.T) {
	opts := func() Options {
		return Options{Profile: phasedProfile(2_000), Instructions: 4_000}
	}
	a, err := RunMany(context.Background(), []Options{opts(), opts()})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a[0], a[1]) {
		t.Error("identical custom-profile options produced different results")
	}
}

func TestProfileOptionValidation(t *testing.T) {
	if _, err := Run(Options{Benchmark: "gcc", Profile: phasedProfile(1000)}); err == nil {
		t.Error("benchmark+profile accepted")
	}
	bad := phasedProfile(0)
	if _, err := Run(Options{Profile: bad}); err == nil {
		t.Error("zero-length phase accepted")
	}
	if err := (Options{Profile: phasedProfile(1000), Instructions: 2000}).Validate(); err != nil {
		t.Errorf("valid profile options rejected: %v", err)
	}
}

// TestOnCommitEventInvariants pins the tracing hook's contract: events
// arrive in program order with strictly monotonic sequence numbers and
// internally consistent lifecycle timestamps.
func TestOnCommitEventInvariants(t *testing.T) {
	for _, machine := range []Machine{Base, GALS} {
		t.Run(string(machine), func(t *testing.T) {
			var events []CommitEvent
			r, err := Run(Options{
				Benchmark:    "gcc",
				Machine:      machine,
				Instructions: 10_000,
				OnCommit:     func(e CommitEvent) { events = append(events, e) },
			})
			if err != nil {
				t.Fatal(err)
			}
			if uint64(len(events)) != r.Committed {
				t.Fatalf("hook saw %d events for %d commits", len(events), r.Committed)
			}
			for i, e := range events {
				if i > 0 && e.Seq <= events[i-1].Seq {
					t.Fatalf("event %d: Seq %d not above predecessor %d (program order violated)",
						i, e.Seq, events[i-1].Seq)
				}
				if !(e.FetchTimeNs <= e.IssueTimeNs && e.IssueTimeNs <= e.CommitTimeNs) {
					t.Fatalf("event %d (seq %d): timestamps out of order: fetch %v issue %v commit %v",
						i, e.Seq, e.FetchTimeNs, e.IssueTimeNs, e.CommitTimeNs)
				}
				// The ns fields are independent float conversions of integer
				// sim times, so compare slip with a rounding tolerance.
				if diff := e.SlipNs - (e.CommitTimeNs - e.FetchTimeNs); diff > 1e-6 || diff < -1e-6 {
					t.Fatalf("event %d: slip %v != commit-fetch %v", i, e.SlipNs, e.CommitTimeNs-e.FetchTimeNs)
				}
			}
		})
	}
}

// TestSharedSlicesAreFreshCopies locks in that the name-listing APIs hand
// out fresh sorted copies: callers mutating a returned slice must never
// corrupt package state for later callers.
func TestSharedSlicesAreFreshCopies(t *testing.T) {
	cases := map[string]func() []string{
		"Benchmarks":  Benchmarks,
		"DomainNames": DomainNames,
	}
	for name, fn := range cases {
		first := fn()
		if len(first) == 0 {
			t.Fatalf("%s() returned nothing", name)
		}
		want := append([]string{}, first...)
		for i := range first {
			first[i] = "CLOBBERED"
		}
		if got := fn(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s() returned shared state: mutation leaked, got %v", name, got)
		}
	}
	if b := Benchmarks(); !sort.StringsAreSorted(groupKeys(b)) {
		t.Errorf("Benchmarks() not sorted by suite then name: %v", b)
	}
}

// groupKeys maps benchmark names to "suite/name" labels so suite-major
// ordering is checkable with a plain sort test.
func groupKeys(names []string) []string {
	keys := make([]string, len(names))
	for i, n := range names {
		info, err := Describe(n)
		if err != nil {
			keys[i] = n
			continue
		}
		keys[i] = info.Suite + "/" + info.Name
	}
	return keys
}
