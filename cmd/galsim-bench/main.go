// Command galsim-bench measures simulator throughput and writes the numbers
// to a JSON file, so performance can be tracked across commits with one
// command and compared against a recorded baseline:
//
//	go run ./cmd/galsim-bench -out BENCH.json
//	go run ./cmd/galsim-bench -label pr3 -baseline seed.json -out BENCH_pr3.json
//
// Two benchmarks run, mirroring the repo's go-test benchmarks:
//
//   - throughput/gals and throughput/base: one core simulating gcc for a
//     fixed instruction count (BenchmarkSimulatorThroughput), reported as
//     simulated instructions per wall-clock second plus the standard
//     ns/op, allocs/op and B/op;
//   - sweep/serial: a cold-cache campaign over several benchmarks on both
//     machines through one worker (BenchmarkSweep/serial), the end-to-end
//     figure the campaign engine and galsimd inherit;
//   - sampler/off and sampler/on: the GALS core with interval sampling
//     disabled versus sampling every 1000 decode cycles, establishing the
//     observability overhead (sampler_regression in the report; the PR 6
//     acceptance bound is <= 5%);
//   - timeline/off and timeline/on: the GALS core with the event tracer
//     detached versus attached in flight-recorder detail mode, the cost a
//     fleet worker pays on traced jobs (timeline_regression; the PR 7
//     acceptance bound is <= 5%);
//   - sweep/grid-cold and sweep/grid-warm: a convergence-grid sweep (three
//     budgets per operating point) without and with warm-up snapshot
//     sharing, the PR 9 wall-clock win (warm_sharing_speedup in the
//     report);
//   - snapshot/encode and snapshot/decode: envelope round-trip cost of a
//     warmed full-machine snapshot, the per-checkpoint price a fleet
//     worker pays on long jobs;
//   - explore/evolve-cold and explore/evolve-warm: a seeded evolutionary
//     design-space search (galsim-explore's engine) on a cold engine,
//     without and with warm-up prefix sharing, reported as candidate
//     evaluations per second plus the generation cache-hit rate (the
//     fraction of sweep units served from the content-addressed cache —
//     duplicate mutants and builtin-equal candidates are free).
//
// Every report stamps the canonical machine digests of the machines the
// benchmarks exercise (and each single-machine measurement carries its
// machine's name and digest), so BENCH artifacts are provenance-comparable
// across PRs: a digest change means the machine itself changed, not just
// the code under it.
//
// When -baseline names a previous output file, the report embeds it and
// computes per-benchmark speedup (baseline ns/op ÷ current ns/op) and the
// allocation reduction, which is how BENCH_pr3.json records its
// before/after comparison.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"galsim/internal/campaign"
	"galsim/internal/explore"
	"galsim/internal/machine"
	"galsim/internal/pipeline"
	"galsim/internal/snapshot"
	"galsim/internal/timeline"
	"galsim/internal/workload"
)

// Measurement is one benchmark's result. Machine/MachineDigest identify
// the machine a single-machine benchmark pins (multi-machine benchmarks
// leave them empty; see Report.Machines for the full set).
type Measurement struct {
	Name            string  `json:"name"`
	Machine         string  `json:"machine,omitempty"`
	MachineDigest   string  `json:"machine_digest,omitempty"`
	Iterations      int     `json:"iterations"`
	NsPerOp         int64   `json:"ns_per_op"`
	AllocsPerOp     int64   `json:"allocs_per_op"`
	BytesPerOp      int64   `json:"bytes_per_op"`
	SimInstrsPerSec float64 `json:"sim_instrs_per_sec,omitempty"`
	EvalsPerSec     float64 `json:"evals_per_sec,omitempty"`
	CacheHitRate    float64 `json:"cache_hit_rate,omitempty"`
}

// MachineStamp records one machine's provenance: its name and canonical
// content digest (machine.Spec.Digest).
type MachineStamp struct {
	Name   string `json:"name"`
	Digest string `json:"digest"`
}

// Report is the file schema.
type Report struct {
	Label     string    `json:"label"`
	Timestamp time.Time `json:"timestamp"`
	GoVersion string    `json:"go_version"`
	GOOS      string    `json:"goos"`
	GOARCH    string    `json:"goarch"`
	NumCPU    int       `json:"num_cpu"`

	// Machines stamps the canonical digest of every builtin machine the
	// benchmarks exercise, so reports are comparable across PRs: a digest
	// change means the machine changed, not just the code under it.
	Machines []MachineStamp `json:"machines,omitempty"`

	Benchmarks []Measurement `json:"benchmarks"`

	// SamplerRegression is the throughput cost of interval sampling:
	// 1 - (sampler/on ÷ sampler/off sim-instrs/s). Positive = slower with
	// sampling enabled.
	SamplerRegression float64 `json:"sampler_regression,omitempty"`

	// TimelineRegression is the throughput cost of the event tracer:
	// 1 - (timeline/on ÷ timeline/off sim-instrs/s). Positive = slower with
	// the tracer attached (flight ring, detail mode).
	TimelineRegression float64 `json:"timeline_regression,omitempty"`

	// ExploreEvalsPerSec and ExploreCacheHitRate summarize the
	// explore/evolve-cold benchmark: candidate evaluations per second and
	// the fraction of its sweep units served from the content-addressed
	// cache (duplicate mutants and builtin-equal candidates are free).
	ExploreEvalsPerSec  float64 `json:"explore_evals_per_sec,omitempty"`
	ExploreCacheHitRate float64 `json:"explore_cache_hit_rate,omitempty"`

	// ExploreWarmSharingRatio is explore/evolve-warm evals/s over
	// explore/evolve-cold evals/s: search throughput with warm-up prefix
	// sharing enabled versus without. Distinct candidate machines never
	// share a warm prefix, so a value near 1.0 is the expected result —
	// it verifies the warm path costs nothing when it cannot share.
	ExploreWarmSharingRatio float64 `json:"explore_warm_sharing_ratio,omitempty"`

	// WarmSharingSpeedup is sweep/grid-warm throughput over sweep/grid-cold
	// throughput: how much faster a convergence-grid sweep gets when grid
	// points sharing a workload prefix fork one warmed snapshot instead of
	// each re-simulating the warm-up. > 1 means sharing pays.
	WarmSharingSpeedup float64 `json:"warm_sharing_speedup,omitempty"`

	// Baseline, when present, is the report this run is compared against;
	// Speedup and AllocReduction are keyed by benchmark name.
	Baseline       *Report            `json:"baseline,omitempty"`
	Speedup        map[string]float64 `json:"speedup,omitempty"`
	AllocReduction map[string]float64 `json:"alloc_reduction,omitempty"`
}

func measure(name string, r testing.BenchmarkResult) Measurement {
	m := Measurement{
		Name:        name,
		Iterations:  r.N,
		NsPerOp:     r.NsPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
	}
	if v, ok := r.Extra["sim-instrs/s"]; ok {
		m.SimInstrsPerSec = v
	}
	if v, ok := r.Extra["evals/s"]; ok {
		m.EvalsPerSec = v
	}
	if v, ok := r.Extra["cache-hit-rate"]; ok {
		m.CacheHitRate = v
	}
	return m
}

// benchThroughput is BenchmarkSimulatorThroughput: raw simulation speed of
// one core, in simulated instructions per wall-clock second.
func benchThroughput(topo pipeline.Topology, instrs uint64) func(b *testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		prof, err := workload.ByName("gcc")
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cfg := pipeline.DefaultConfig(topo)
			pipeline.NewCore(cfg, prof).Run(instrs)
		}
		b.ReportMetric(float64(instrs*uint64(b.N))/b.Elapsed().Seconds(), "sim-instrs/s")
	}
}

// benchSampler is the sampler-overhead pair: the GALS core with interval
// sampling off (interval 0) or on. The two runs differ only in
// Config.SampleInterval, so their throughput ratio isolates the sampler.
func benchSampler(interval, instrs uint64) func(b *testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		prof, err := workload.ByName("gcc")
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cfg := pipeline.DefaultConfig(pipeline.GALSTopology())
			cfg.SampleInterval = interval
			pipeline.NewCore(cfg, prof).Run(instrs)
		}
		b.ReportMetric(float64(instrs*uint64(b.N))/b.Elapsed().Seconds(), "sim-instrs/s")
	}
}

// benchTimeline is the timeline-overhead pair: the GALS core with the
// event tracer detached versus attached with a flight ring at standard
// detail (the configuration a fleet worker uses for traced jobs; -detail
// adds per-transfer FIFO events and costs more). The two runs differ only
// in AttachTimeline, so their throughput ratio isolates the tracer — the
// PR 7 acceptance bound is <= 5%.
func benchTimeline(on bool, instrs uint64) func(b *testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		prof, err := workload.ByName("gcc")
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cfg := pipeline.DefaultConfig(pipeline.GALSTopology())
			core := pipeline.NewCore(cfg, prof)
			if on {
				rec := timeline.NewRecorder(timeline.Options{MaxEvents: 1024, Flight: true})
				core.AttachTimeline(rec, false, 0)
			}
			core.Run(instrs)
		}
		b.ReportMetric(float64(instrs*uint64(b.N))/b.Elapsed().Seconds(), "sim-instrs/s")
	}
}

// benchSweep is BenchmarkSweep/serial: a cold-cache campaign through one
// worker, the figure the sweep and experiment layers inherit.
func benchSweep(instrs uint64) func(b *testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		sweep := campaign.Sweep{
			Benchmarks:   []string{"compress", "gcc", "li", "perl", "swim", "fpppp"},
			Machines:     []string{"base", "gals"},
			Instructions: instrs,
		}
		units, err := sweep.Units()
		if err != nil {
			b.Fatal(err)
		}
		total := float64(len(units)) * float64(instrs)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e := campaign.NewEngine(1) // fresh engine: cold cache, serial
			if _, err := e.RunAll(context.Background(), units); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(total*float64(b.N)/b.Elapsed().Seconds(), "sim-instrs/s")
	}
}

// benchSweepGrid is the warm-sharing pair: a convergence-grid sweep (three
// instruction budgets per operating point) run cold versus with Warmup set,
// where budgets sharing a prefix fork one warmed snapshot. Both report
// throughput against the nominal (cold) instruction total, so the warm run's
// sim-instrs/s directly reflects the wall-clock saved by sharing. The warm-up
// has to dominate the snapshot round-trip (~12ms encode+decode at these
// machine sizes, see snapshot/encode and snapshot/decode) for sharing to
// pay, so this benchmark uses convergence-study-sized budgets; at short
// warm-ups sharing is a net loss, which the -warmup flag lets you measure.
func benchSweepGrid(warmup uint64) func(b *testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		sweep := campaign.Sweep{
			Benchmarks:       []string{"gcc", "swim"},
			Machines:         []string{"base", "gals"},
			InstructionsGrid: []uint64{30_000, 36_000, 42_000},
			Warmup:           warmup,
		}
		var nominal float64
		for _, n := range sweep.InstructionsGrid {
			nominal += float64(n) * float64(len(sweep.Benchmarks)*len(sweep.Machines))
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e := campaign.NewEngine(1) // fresh engine: cold cache, serial
			if _, err := e.RunSweep(context.Background(), sweep); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(nominal*float64(b.N)/b.Elapsed().Seconds(), "sim-instrs/s")
	}
}

// benchExplore is the design-space-search pair: a seeded evolutionary
// search (the galsim-explore engine) scored on a fresh serial campaign
// engine per iteration, without and with warm-up prefix sharing. It
// reports candidate evaluations per second and the generation cache-hit
// rate — the fraction of sweep units served from the content-addressed
// cache, where duplicate mutants and builtin-equal candidates become
// free. The warm variant sets Sweep.Warmup on every generation; distinct
// candidate machines never share a warm prefix, so its evals/s should
// track the cold variant's (see Report.ExploreWarmSharingRatio).
func benchExplore(warmup uint64) func(b *testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		spec := explore.SearchSpec{
			Name:         "bench",
			Seed:         7,
			Strategy:     explore.StrategyEvolutionary,
			Workloads:    []string{"gcc"},
			Instructions: 4_000,
			Warmup:       warmup,
			Budget:       explore.BudgetSpec{Population: 6, MaxGenerations: 3},
		}
		var evals, units, hits int
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			x := &explore.Explorer{Evaluator: explore.BackendEvaluator{Backend: campaign.NewEngine(1)}}
			res, err := x.Run(context.Background(), spec)
			if err != nil {
				b.Fatal(err)
			}
			evals += res.Evaluations
			units += res.Exec.Units
			hits += res.Exec.CacheHits
		}
		b.ReportMetric(float64(evals)/b.Elapsed().Seconds(), "evals/s")
		if units > 0 {
			b.ReportMetric(float64(hits)/float64(units), "cache-hit-rate")
		}
	}
}

// warmedSnapshot runs the GALS gcc point for instrs committed instructions
// and returns the captured full-machine snapshot, the subject of the
// snapshot encode/decode benchmarks.
func warmedSnapshot(instrs uint64) (*snapshot.Snapshot, error) {
	spec := campaign.RunSpec{Benchmark: "gcc", Machine: "gals", Instructions: 2 * instrs}.Canonical()
	var sn *snapshot.Snapshot
	_, err := campaign.ExecuteOpts(spec, campaign.ExecOpts{
		CheckpointEvery: instrs,
		OnSnapshot: func(s *snapshot.Snapshot) {
			if sn == nil {
				sn = s
			}
		},
	})
	if err == nil && sn == nil {
		err = fmt.Errorf("no snapshot captured at %d instructions", instrs)
	}
	return sn, err
}

// benchSnapshotEncode measures the envelope serialization of a warmed
// snapshot — the cost a fleet worker pays at every checkpoint cadence tick.
func benchSnapshotEncode(instrs uint64) func(b *testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		sn, err := warmedSnapshot(instrs)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := sn.EncodeBytes(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// benchSnapshotDecode measures envelope validation plus state decode — the
// restore-side cost paid when a follower forks a shared warm snapshot or a
// worker resumes a checkpointed job.
func benchSnapshotDecode(instrs uint64) func(b *testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		sn, err := warmedSnapshot(instrs)
		if err != nil {
			b.Fatal(err)
		}
		blob, err := sn.EncodeBytes()
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := snapshot.DecodeBytes(blob); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func main() {
	var (
		out       = flag.String("out", "BENCH.json", "output file")
		label     = flag.String("label", "current", "label recorded in the report")
		baseline  = flag.String("baseline", "", "previous report to embed and compare against")
		instrs    = flag.Uint64("n", 20_000, "instructions per throughput run")
		sweepN    = flag.Uint64("sweep-n", 4_000, "instructions per sweep unit")
		sampleIvl = flag.Uint64("sample-interval", 1_000, "decode-cycle interval for the sampler/on benchmark")
		warmup    = flag.Uint64("warmup", 24_000, "warm-up prefix for the sweep/grid-warm benchmark (must stay below the smallest grid budget, 30000)")
		repeat    = flag.Int("repeat", 3, "runs per benchmark; the fastest is recorded (best-of-N damps scheduler noise)")
	)
	flag.Parse()

	rep := Report{
		Label:     *label,
		Timestamp: time.Now().UTC(),
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
	}

	digests := map[string]string{}
	for _, ms := range machine.Builtins() {
		digests[ms.Name] = ms.Digest()
		rep.Machines = append(rep.Machines, MachineStamp{Name: ms.Name, Digest: ms.Digest()})
	}

	// The machine column names the single builtin a benchmark pins (its
	// stamp lands on the measurement); multi-machine and search benchmarks
	// leave it empty and are covered by Report.Machines.
	benches := []struct {
		name    string
		machine string
		fn      func(b *testing.B)
	}{
		{"throughput/gals", "gals", benchThroughput(pipeline.GALSTopology(), *instrs)},
		{"throughput/base", "base", benchThroughput(pipeline.BaseTopology(), *instrs)},
		{"sweep/serial", "", benchSweep(*sweepN)},
		{"sampler/off", "gals", benchSampler(0, *instrs)},
		{"sampler/on", "gals", benchSampler(*sampleIvl, *instrs)},
		{"timeline/off", "gals", benchTimeline(false, *instrs)},
		{"timeline/on", "gals", benchTimeline(true, *instrs)},
		{"sweep/grid-cold", "", benchSweepGrid(0)},
		{"sweep/grid-warm", "", benchSweepGrid(*warmup)},
		{"snapshot/encode", "gals", benchSnapshotEncode(*instrs)},
		{"snapshot/decode", "gals", benchSnapshotDecode(*instrs)},
		{"explore/evolve-cold", "", benchExplore(0)},
		{"explore/evolve-warm", "", benchExplore(2_000)},
	}
	if *repeat < 1 {
		*repeat = 1
	}
	// Rounds are interleaved — every benchmark once per round, best result
	// kept — so slow machine drift lands on all benchmarks alike instead of
	// poisoning the off/on regression ratios.
	best := make([]Measurement, len(benches))
	for round := 0; round < *repeat; round++ {
		fmt.Fprintf(os.Stderr, "round %d/%d...\n", round+1, *repeat)
		for i, bb := range benches {
			m := measure(bb.name, testing.Benchmark(bb.fn))
			if bb.machine != "" {
				m.Machine = bb.machine
				m.MachineDigest = digests[bb.machine]
			}
			if round == 0 || m.NsPerOp < best[i].NsPerOp {
				best[i] = m
			}
		}
	}
	for _, m := range best {
		fmt.Fprintf(os.Stderr, "%s: %d iterations, %d ns/op, %d allocs/op, %d B/op, %.0f sim-instrs/s\n",
			m.Name, m.Iterations, m.NsPerOp, m.AllocsPerOp, m.BytesPerOp, m.SimInstrsPerSec)
		rep.Benchmarks = append(rep.Benchmarks, m)
	}
	var samplerOff, samplerOn, tlOff, tlOn, gridCold, gridWarm float64
	var exploreCold, exploreWarm float64
	for _, m := range rep.Benchmarks {
		switch m.Name {
		case "sampler/off":
			samplerOff = m.SimInstrsPerSec
		case "sampler/on":
			samplerOn = m.SimInstrsPerSec
		case "timeline/off":
			tlOff = m.SimInstrsPerSec
		case "timeline/on":
			tlOn = m.SimInstrsPerSec
		case "sweep/grid-cold":
			gridCold = m.SimInstrsPerSec
		case "sweep/grid-warm":
			gridWarm = m.SimInstrsPerSec
		case "explore/evolve-cold":
			exploreCold = m.EvalsPerSec
			rep.ExploreEvalsPerSec = m.EvalsPerSec
			rep.ExploreCacheHitRate = m.CacheHitRate
		case "explore/evolve-warm":
			exploreWarm = m.EvalsPerSec
		}
	}
	if samplerOff > 0 {
		rep.SamplerRegression = 1 - samplerOn/samplerOff
		fmt.Fprintf(os.Stderr, "sampler regression: %.2f%%\n", 100*rep.SamplerRegression)
	}
	if tlOff > 0 {
		rep.TimelineRegression = 1 - tlOn/tlOff
		fmt.Fprintf(os.Stderr, "timeline regression: %.2f%%\n", 100*rep.TimelineRegression)
	}
	if gridCold > 0 {
		rep.WarmSharingSpeedup = gridWarm / gridCold
		fmt.Fprintf(os.Stderr, "warm sharing speedup: %.2fx\n", rep.WarmSharingSpeedup)
	}
	if exploreCold > 0 {
		rep.ExploreWarmSharingRatio = exploreWarm / exploreCold
		fmt.Fprintf(os.Stderr, "explore: %.1f evals/s, cache-hit rate %.2f, warm/cold ratio %.2fx\n",
			rep.ExploreEvalsPerSec, rep.ExploreCacheHitRate, rep.ExploreWarmSharingRatio)
	}

	if *baseline != "" {
		raw, err := os.ReadFile(*baseline)
		if err != nil {
			fmt.Fprintln(os.Stderr, "galsim-bench:", err)
			os.Exit(1)
		}
		var base Report
		if err := json.Unmarshal(raw, &base); err != nil {
			fmt.Fprintln(os.Stderr, "galsim-bench: parsing baseline:", err)
			os.Exit(1)
		}
		base.Baseline = nil // keep one level of nesting
		rep.Baseline = &base
		rep.Speedup = map[string]float64{}
		rep.AllocReduction = map[string]float64{}
		for _, bm := range base.Benchmarks {
			for _, cm := range rep.Benchmarks {
				if cm.Name != bm.Name {
					continue
				}
				if cm.NsPerOp != 0 {
					rep.Speedup[cm.Name] = float64(bm.NsPerOp) / float64(cm.NsPerOp)
				}
				if bm.AllocsPerOp != 0 {
					rep.AllocReduction[cm.Name] = 1 - float64(cm.AllocsPerOp)/float64(bm.AllocsPerOp)
				}
			}
		}
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "galsim-bench:", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "galsim-bench:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", *out)
}
