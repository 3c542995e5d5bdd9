package campaign

import (
	"context"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"galsim/internal/machine"
	"galsim/internal/pipeline"
	"galsim/internal/workload"
)

func TestKeyCanonicalization(t *testing.T) {
	sparse := RunSpec{Benchmark: "gcc"}
	explicit := RunSpec{
		Benchmark:      "gcc",
		Machine:        "base",
		Instructions:   100_000,
		WorkloadSeed:   42,
		PhaseSeed:      1,
		MemoryOrdering: "perfect",
		LinkStyle:      "fifo",
		Predictor:      "gshare",
		Slowdowns:      map[string]float64{"all": 1}, // a no-op stretch
	}
	if sparse.Key() != explicit.Key() {
		t.Errorf("sparse and explicit-default specs hash differently:\n%s\n%s", sparse.Key(), explicit.Key())
	}
	variants := []RunSpec{
		{Benchmark: "gcc", Machine: "gals"},
		{Benchmark: "perl"},
		{Benchmark: "gcc", Instructions: 50_000},
		{Benchmark: "gcc", WorkloadSeed: 7},
		{Benchmark: "gcc", Machine: "gals", PhaseSeed: 9},
		{Benchmark: "gcc", Machine: "gals", Slowdowns: map[string]float64{"fp": 2}},
		{Benchmark: "gcc", FreqOnly: true},
	}
	seen := map[string]int{sparse.Key(): -1}
	for i, v := range variants {
		k := v.Key()
		if prev, dup := seen[k]; dup {
			t.Errorf("variant %d collides with %d: %+v", i, prev, v)
		}
		seen[k] = i
	}
	// The base machine ignores clock phases and link style entirely, so
	// those fields must not fragment its cache keys.
	basePhase2 := RunSpec{Benchmark: "gcc", PhaseSeed: 2, ZeroPhases: true, LinkStyle: "stretch"}
	if basePhase2.Key() != sparse.Key() {
		t.Error("phase/link settings changed a base-machine cache key")
	}
	galsPhase1 := RunSpec{Benchmark: "gcc", Machine: "gals"}
	galsPhase2 := RunSpec{Benchmark: "gcc", Machine: "gals", PhaseSeed: 2}
	if galsPhase1.Key() == galsPhase2.Key() {
		t.Error("phase seed did not change a GALS cache key")
	}
}

// TestSlowdownKeyCanonicalization pins that slowdown maps simulating the
// same machine share one key: on a single-clock machine the lone domain's
// name is the uniform "all" stretch (the domain entry winning when both are
// given), and a domain entry equal to the uniform stretch is a no-op. A
// domain entry that differs from "all" refines it and must keep its own key.
func TestSlowdownKeyCanonicalization(t *testing.T) {
	slow := func(name string, m map[string]float64) RunSpec {
		return RunSpec{Benchmark: "gcc", Machine: name, Instructions: 4_000, Slowdowns: m}
	}
	same := []struct{ a, b RunSpec }{
		{slow("base", map[string]float64{"core": 2}), slow("base", map[string]float64{"all": 2})},
		{slow("base", map[string]float64{"all": 3, "core": 2}), slow("base", map[string]float64{"all": 2})},
		{slow("base", map[string]float64{"all": 2, "core": 1}), slow("base", nil)},
		{slow("gals", map[string]float64{"all": 2, "fp": 2}), slow("gals", map[string]float64{"all": 2})},
	}
	for i, c := range same {
		if c.a.Key() != c.b.Key() {
			t.Errorf("pair %d: %v and %v hash differently", i, c.a.Slowdowns, c.b.Slowdowns)
		}
		sa, errA := Execute(c.a, nil)
		sb, errB := Execute(c.b, nil)
		if errA != nil || errB != nil || !reflect.DeepEqual(sa, sb) {
			t.Errorf("pair %d: equal-key specs simulate differently (errors %v, %v)", i, errA, errB)
		}
	}
	// The keys of existing "all" specs are unchanged.
	if got := slow("base", map[string]float64{"all": 2}).Canonical().Slowdowns; !reflect.DeepEqual(got, map[string]float64{"all": 2}) {
		t.Errorf("canonical base {all: 2} slowdowns = %v", got)
	}
	refined := slow("gals", map[string]float64{"all": 2, "fp": 1})
	uniform := slow("gals", map[string]float64{"all": 2})
	if refined.Key() == uniform.Key() {
		t.Error("a domain refining the uniform stretch lost its entry in the key")
	}
	sr, errR := Execute(refined, nil)
	su, errU := Execute(uniform, nil)
	if errR != nil || errU != nil || reflect.DeepEqual(sr, su) {
		t.Errorf("fp=1 under all=2 simulated like all=2 (errors %v, %v)", errR, errU)
	}
}

func TestSweepNumUnitsSaturates(t *testing.T) {
	big := make([]int64, 200_000)
	for i := range big {
		big[i] = int64(i + 1)
	}
	s := Sweep{WorkloadSeeds: big, PhaseSeeds: big} // ~1.2e12 cross product
	if n := s.NumUnits(); n <= MaxUnits {
		t.Fatalf("NumUnits = %d, want saturation above %d", n, MaxUnits)
	}
	if _, err := s.Units(); err == nil {
		t.Fatal("astronomical sweep expanded without error")
	}
}

func TestValidateErrors(t *testing.T) {
	cases := []struct {
		spec RunSpec
		want string // substring of the error
	}{
		{RunSpec{}, "benchmark is required"},
		{RunSpec{Benchmark: "nope"}, "nope"},
		{RunSpec{Benchmark: "gcc", Machine: "warp"}, "unknown machine"},
		{RunSpec{Benchmark: "gcc", Machine: "gals", Slowdowns: map[string]float64{"warp": 2}}, "unknown clock domain"},
		{RunSpec{Benchmark: "gcc", Machine: "gals", Slowdowns: map[string]float64{"fp": 0.5}}, ">= 1"},
		{RunSpec{Benchmark: "gcc", Machine: "gals", Slowdowns: map[string]float64{"fp": math.NaN()}}, "finite"},
		{RunSpec{Benchmark: "gcc", Machine: "gals", Slowdowns: map[string]float64{"fp": math.Inf(1)}}, "finite"},
		{RunSpec{Benchmark: "gcc", Machine: "base", Slowdowns: map[string]float64{"fp": 2}}, "single clock"},
		{RunSpec{Benchmark: "gcc", MemoryOrdering: "psychic"}, "memory ordering"},
		{RunSpec{Benchmark: "gcc", LinkStyle: "tachyon"}, "link style"},
		{RunSpec{Benchmark: "gcc", Predictor: "oracle"}, "predictor"},
		{RunSpec{Benchmark: "gcc", DynamicDVFS: true}, "gals machine"},
		{RunSpec{Benchmark: "gcc", Machine: "gals", FIFOCapacity: -1}, "must be non-negative"},
	}
	for i, c := range cases {
		err := c.spec.Validate()
		if err == nil {
			t.Errorf("case %d: no error for %+v", i, c.spec)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("case %d: error %q does not mention %q", i, err, c.want)
		}
	}
	// The unknown-domain error must list every valid domain, so API users
	// can self-correct.
	err := RunSpec{Benchmark: "gcc", Machine: "gals",
		Slowdowns: map[string]float64{"warp": 2}}.Validate()
	for _, d := range DomainNames() {
		if !strings.Contains(err.Error(), d) {
			t.Errorf("unknown-domain error %q does not list domain %q", err, d)
		}
	}
}

func TestDomainNamesMatchPipeline(t *testing.T) {
	want := []string{"fetch", "decode", "int", "fp", "mem"}
	if got := DomainNames(); !reflect.DeepEqual(got, want) {
		t.Errorf("DomainNames() = %v, want %v", got, want)
	}
}

// TestExecuteMatchesDirectRun pins the campaign translation layer to the
// simulator: a spec routed through PipelineConfig must reproduce the exact
// stats of a hand-built pipeline run.
func TestExecuteMatchesDirectRun(t *testing.T) {
	spec := RunSpec{
		Benchmark:    "perl",
		Machine:      "gals",
		Instructions: 10_000,
		Slowdowns:    map[string]float64{"fp": 3},
	}
	got, err := Execute(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := pipeline.DefaultConfig(machine.GALS().Topology())
	cfg.WorkloadSeed = 42
	cfg.PhaseSeed = 1
	cfg.Slowdowns[pipeline.DomFP] = 3
	prof, err := workload.ByName("perl")
	if err != nil {
		t.Fatal(err)
	}
	want := pipeline.NewCoreWithSource(cfg, prof.Name, workload.NewGenerator(prof, cfg.WorkloadSeed)).Run(10_000)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("campaign run diverged from direct pipeline run:\ncampaign: %+v\ndirect:   %+v", got, want)
	}
}

// testSweep is a 12-unit grid used by the determinism tests.
func testSweep() Sweep {
	return Sweep{
		Benchmarks:   []string{"gcc", "swim", "compress"},
		Machines:     []string{"base", "gals"},
		SlowdownGrid: []map[string]float64{nil, {"all": 1.5}},
		Instructions: 6_000,
	}
}

// TestSweepDeterministicAcrossWorkerCounts is the campaign determinism
// contract: identical spec + seeds must produce byte-identical aggregated
// results no matter how the units are scheduled.
func TestSweepDeterministicAcrossWorkerCounts(t *testing.T) {
	var ref []byte
	for _, workers := range []int{1, 4, 16} {
		results, err := RunSweepOn(context.Background(), NewEngine(workers), testSweep())
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		b, err := json.Marshal(results)
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = b
			continue
		}
		if string(b) != string(ref) {
			t.Errorf("workers=%d: aggregated results differ from workers=1 run", workers)
		}
	}
}

// sweepSpecs expands s and returns the canonical specs of its units.
func sweepSpecs(s Sweep) ([]RunSpec, error) {
	units, err := s.Units()
	specs := make([]RunSpec, len(units))
	for i, u := range units {
		specs[i] = u.Spec()
	}
	return specs, err
}

func TestSweepUnitsExpansionOrder(t *testing.T) {
	units, err := sweepSpecs(testSweep())
	if err != nil {
		t.Fatal(err)
	}
	if len(units) != 12 {
		t.Fatalf("units = %d, want 12", len(units))
	}
	// Benchmarks vary slowest, then machines, then the grid.
	if units[0].Benchmark != "gcc" || units[0].Machine != "base" || units[0].Slowdowns != nil {
		t.Errorf("unit 0 = %+v", units[0])
	}
	if units[1].Slowdowns["all"] != 1.5 {
		t.Errorf("unit 1 = %+v", units[1])
	}
	if units[2].Machine != "gals" || units[4].Benchmark != "swim" {
		t.Errorf("units out of order: %+v / %+v", units[2], units[4])
	}
	// An invalid point anywhere in the grid fails the whole expansion.
	bad := testSweep()
	bad.SlowdownGrid = append(bad.SlowdownGrid, map[string]float64{"warp": 2})
	if _, err := bad.Units(); err == nil {
		t.Error("sweep with invalid grid point expanded without error")
	}
}

// TestSweepBaseMachineGrid: per-domain grid points must not reject a sweep
// that also covers the single-clock base machine — base units keep only the
// "all" key, giving a full-speed reference against each slowed GALS point.
func TestSweepBaseMachineGrid(t *testing.T) {
	s := Sweep{
		Benchmarks:   []string{"gcc"},
		SlowdownGrid: []map[string]float64{{"fp": 1.5}, {"fp": 3, "all": 1.2}},
		Instructions: 5_000,
	}
	units, err := sweepSpecs(s) // machines default to [base, gals]
	if err != nil {
		t.Fatal(err)
	}
	if len(units) != 4 {
		t.Fatalf("units = %d, want 4", len(units))
	}
	for _, u := range units {
		switch u.Machine {
		case "base":
			if _, ok := u.Slowdowns["fp"]; ok {
				t.Errorf("base unit kept a per-domain slowdown: %+v", u)
			}
		case "gals":
			if u.Slowdowns["fp"] == 0 {
				t.Errorf("gals unit lost its per-domain slowdown: %+v", u)
			}
		}
	}
	if units[1].Slowdowns["all"] != 1.2 {
		t.Errorf("base unit dropped the uniform slowdown: %+v", units[1])
	}
}

func TestEngineMemoizes(t *testing.T) {
	e := NewEngine(2)
	spec := RunSpec{Benchmark: "li", Instructions: 5_000}
	first, _, err := e.RunOpts(context.Background(), spec, ExecOpts{})
	if err != nil {
		t.Fatal(err)
	}
	second, _, err := e.RunOpts(context.Background(), spec, ExecOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Error("cached result differs from original")
	}
	st := e.Stats()
	if st.Misses != 1 || st.Hits != 1 || st.Entries != 1 {
		t.Errorf("stats = %+v, want 1 miss, 1 hit, 1 entry", st)
	}
	// Duplicates within one RunAll batch also collapse to one simulation.
	if _, err := e.RunAll(context.Background(), []RunSpec{spec, spec, spec}); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.Misses != 1 {
		t.Errorf("RunAll re-simulated a cached spec: %+v", st)
	}
}

// TestEngineBoundsConcurrentRuns drives many independent Run callers (the
// POST /run pattern) through a narrow engine: all must complete, and the
// semaphore must never admit more simulations than workers. The bound
// itself is asserted structurally (capacity of the semaphore); this test
// guards against deadlock between Run callers and the singleflight path.
func TestEngineBoundsConcurrentRuns(t *testing.T) {
	e := NewEngine(2)
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			spec := RunSpec{Benchmark: "adpcm", Instructions: 4_000, WorkloadSeed: int64(1 + i%4)}
			_, _, errs[i] = e.RunOpts(context.Background(), spec, ExecOpts{})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("caller %d: %v", i, err)
		}
	}
	if st := e.Stats(); st.Misses != 4 || st.Hits != 4 {
		t.Errorf("stats = %+v, want 4 misses (distinct seeds) and 4 singleflight hits", st)
	}
}

func TestEngineDoesNotCacheFailures(t *testing.T) {
	e := NewEngine(1)
	spec := RunSpec{Benchmark: "gcc", Machine: "gals", FIFOSyncEdges: -1}
	if _, _, err := e.RunOpts(context.Background(), spec, ExecOpts{}); err == nil {
		t.Fatal("invalid spec ran without error")
	}
	if st := e.Stats(); st.Entries != 0 {
		t.Errorf("failed run left a cache entry: %+v", st)
	}
}

func TestRunAllCancellation(t *testing.T) {
	sweep := Sweep{
		Benchmarks:   Benchmarks(), // 15 benchmarks...
		Machines:     []string{"base", "gals"},
		PhaseSeeds:   []int64{1, 2, 3}, // ... x 2 x 3 = 90 units
		Instructions: 30_000,
	}
	units, err := sweepSpecs(sweep)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range batchRunners {
		t.Run(r.name, func(t *testing.T) {
			// Already-cancelled context: nothing must be simulated.
			e := NewEngine(4)
			cancelled, cancel := context.WithCancel(context.Background())
			cancel()
			if _, err := r.run(e, cancelled, units, nil); err == nil {
				t.Error("batch with cancelled context returned no error")
			}
			if st := e.Stats(); st.Misses != 0 {
				t.Errorf("cancelled batch simulated %d units", st.Misses)
			}
			// Mid-flight cancellation: the pool must stop promptly, far short
			// of the full grid.
			ctx, cancel := context.WithCancel(context.Background())
			done := make(chan error, 1)
			start := time.Now()
			go func() { _, err := r.run(e, ctx, units, nil); done <- err }()
			time.Sleep(50 * time.Millisecond)
			cancel()
			select {
			case err := <-done:
				if err == nil {
					t.Error("cancelled batch returned no error")
				}
			case <-time.After(10 * time.Second):
				t.Fatal("batch did not stop within 10s of cancellation")
			}
			elapsed := time.Since(start)
			if st := e.Stats(); st.Misses >= uint64(len(units)) {
				t.Errorf("pool ran the whole %d-unit grid (%d simulated in %v) despite cancellation",
					len(units), st.Misses, elapsed)
			}
		})
	}
}
