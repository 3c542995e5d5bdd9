package campaign_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"hash"
	"hash/fnv"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"galsim/internal/campaign"
	"galsim/internal/explore"
	"galsim/internal/isa"
	"galsim/internal/machine"
	"galsim/internal/snapshot"
	"galsim/internal/workload"
)

// recycleUnit is one unit of the recycling differential and what it
// observed: its Stats, the snapshot it captured, and a digest of its commit
// stream that includes each record's arena generation.
type recycleUnit struct {
	name   string
	spec   campaign.RunSpec
	resume *snapshot.Snapshot
	warmup uint64 // capture point; 0 captures nothing

	stats, snap []byte
	commits     hash.Hash64
}

// opts returns the unit's taps, resetting what it observed.
func (u *recycleUnit) opts() campaign.ExecOpts {
	u.stats, u.snap, u.commits = nil, nil, fnv.New64a()
	var buf []byte
	o := campaign.ExecOpts{
		Resume: u.resume,
		OnCommit: func(in *isa.Instr) {
			buf = binary.LittleEndian.AppendUint64(buf[:0], uint64(in.Seq))
			buf = binary.LittleEndian.AppendUint64(buf, in.PC)
			buf = binary.LittleEndian.AppendUint64(buf, uint64(in.Generation()))
			buf = binary.LittleEndian.AppendUint64(buf, uint64(in.CommitTime))
			u.commits.Write(buf)
		},
	}
	if u.warmup > 0 {
		o.Warmup = u.warmup
		o.OnSnapshot = func(s *snapshot.Snapshot) { u.snap = s.State }
	}
	return o
}

// TestRecyclingDifferential runs units that differ in every dimension the
// API exposes twice: each alone on fresh storage (two collections empty
// every pool the recycled tables wait in), then all interleaved on one
// four-worker engine, where each unit takes tables an earlier one released.
// Stats, captured snapshots and commit streams must match: a recycled table
// must be indistinguishable from a new one.
func TestRecyclingDifferential(t *testing.T) {
	const n = 5_000
	dir := t.TempDir()

	tracePath := filepath.Join(dir, "gcc.trace")
	f, err := os.Create(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := campaign.ExecuteOpts(campaign.RunSpec{Benchmark: "gcc", Machine: "gals", Instructions: n},
		campaign.ExecOpts{TraceOut: f}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	resumeSpec := campaign.RunSpec{Benchmark: "li", Machine: "gals", Instructions: n}
	var resume *snapshot.Snapshot
	if _, err := campaign.ExecuteOpts(resumeSpec, campaign.ExecOpts{Warmup: 1_500,
		OnSnapshot: func(s *snapshot.Snapshot) { resume = s }}); err != nil {
		t.Fatal(err)
	}

	explored := exploredMachine(t)

	big, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	big.Name, big.CodeFootprint = "", 8<<20
	profile := &workload.ProfileSpec{Name: "bigcode", Phases: []workload.PhaseSpec{
		{Profile: &big, Instructions: 2_000},
		{Benchmark: "swim", Instructions: 1_000},
	}}

	units := []*recycleUnit{
		{name: "fifo-capacity", spec: campaign.RunSpec{Benchmark: "gcc", Machine: "gals", FIFOCapacity: 3}},
		{name: "sync-edges", spec: campaign.RunSpec{Benchmark: "perl", Machine: "gals", FIFOSyncEdges: 4}},
		{name: "stretch-links", spec: campaign.RunSpec{Benchmark: "swim", Machine: "gals", LinkStyle: "stretch"}},
		{name: "bimodal", spec: campaign.RunSpec{Benchmark: "compress", Predictor: "bimodal"}},
		{name: "explored-machine", spec: campaign.RunSpec{Benchmark: "vortex", MachineSpec: &explored}},
		{name: "large-footprint", spec: campaign.RunSpec{Profile: profile, Machine: "gals"}},
		{name: "trace-replay", spec: campaign.RunSpec{Trace: &campaign.TraceRef{Path: tracePath}, Machine: "gals"}},
		{name: "resume", spec: resumeSpec, resume: resume},
	}
	for _, u := range units {
		u.spec.Instructions = n
		u.warmup = 3_000
	}
	var warm []*recycleUnit
	for _, instrs := range []uint64{4_000, 5_000, 6_000} {
		warm = append(warm, &recycleUnit{name: "warm-shared",
			spec: campaign.RunSpec{Benchmark: "ijpeg", Machine: "gals", Instructions: instrs}})
	}

	alone := map[*recycleUnit]recycleUnit{}
	for _, u := range append(append([]*recycleUnit(nil), units...), warm...) {
		runtime.GC()
		runtime.GC()
		st, err := campaign.ExecuteOpts(u.spec, u.opts())
		if err != nil {
			t.Fatalf("%s alone: %v", u.name, err)
		}
		if u.stats, err = json.Marshal(st); err != nil {
			t.Fatal(err)
		}
		alone[u] = *u
	}

	e := campaign.NewEngine(4)
	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make(chan error, len(units)+1)
	for _, u := range units {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st, _, err := e.RunOpts(ctx, u.spec, u.opts())
			if err == nil {
				u.stats, err = json.Marshal(st)
			}
			errs <- err
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		specs := make([]campaign.RunSpec, len(warm))
		for i, u := range warm {
			specs[i] = u.spec
		}
		sts, err := e.RunAllWarm(ctx, specs, 2_000, nil)
		for i := 0; err == nil && i < len(sts); i++ {
			warm[i].stats, err = json.Marshal(sts[i])
		}
		errs <- err
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	for _, u := range units {
		want := alone[u]
		if !bytes.Equal(u.stats, want.stats) {
			t.Errorf("%s: interleaved Stats differ from the unit alone", u.name)
		}
		if len(want.snap) == 0 || !bytes.Equal(u.snap, want.snap) {
			t.Errorf("%s: interleaved snapshot (%d bytes) differs from the unit alone (%d bytes)",
				u.name, len(u.snap), len(want.snap))
		}
		if u.commits.Sum64() != want.commits.Sum64() {
			t.Errorf("%s: interleaved commit stream differs from the unit alone", u.name)
		}
	}
	for _, u := range warm {
		if !bytes.Equal(u.stats, alone[u].stats) {
			t.Errorf("%s %d: Stats differ from the unit alone", u.name, u.spec.Instructions)
		}
	}
}

// exploredMachine runs a small seeded search and returns a non-builtin
// machine it evaluated.
func exploredMachine(t *testing.T) machine.Spec {
	t.Helper()
	x := &explore.Explorer{Evaluator: explore.BackendEvaluator{Backend: campaign.NewEngine(1)},
		Log: slog.New(slog.NewTextHandler(io.Discard, nil))}
	res, err := x.Run(context.Background(), explore.SearchSpec{
		Seed:         3,
		Strategy:     explore.StrategyRandom,
		Instructions: 1_000,
		Space: explore.SpaceSpec{
			FrequenciesGHz: []float64{0.8, 1},
			LinkDepths:     []int{0, 6},
			SyncEdges:      []int{0, 3},
		},
		Budget: explore.BudgetSpec{Population: 6, MaxGenerations: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Frontier {
		if p.Machine != nil && p.Machine.Name != machine.Base().Name && p.Machine.Name != machine.GALS().Name {
			return *p.Machine
		}
	}
	t.Fatal("the search found no non-builtin machine on its frontier")
	return machine.Spec{}
}
