// Package galsim is a cycle-accurate power/performance simulator for
// Globally Asynchronous Locally Synchronous (GALS) superscalar processors:
// a from-scratch reproduction of Iyer & Marculescu, "Power and Performance
// Evaluation of Globally Asynchronous Locally Synchronous Processors"
// (ISCA 2002).
//
// The package simulates a 4-wide out-of-order machine in two variants — a
// fully synchronous baseline and a 5-clock-domain GALS design communicating
// through mixed-clock FIFOs — over synthetic Spec95/Mediabench-like
// workloads, with Wattch-style energy accounting and per-domain dynamic
// voltage/frequency scaling.
//
// Quick start:
//
//	base, _ := galsim.Run(galsim.Options{Benchmark: "gcc", Machine: galsim.Base})
//	gals, _ := galsim.Run(galsim.Options{Benchmark: "gcc", Machine: galsim.GALS})
//	fmt.Printf("relative performance: %.3f\n", base.SimSeconds/gals.SimSeconds)
//
// Per-domain frequency scaling with automatic voltage selection (the
// paper's multiple-clock, multiple-voltage experiments):
//
//	r, _ := galsim.Run(galsim.Options{
//	    Benchmark: "gcc",
//	    Machine:   galsim.GALS,
//	    Slowdowns: map[string]float64{"fetch": 1.1, "fp": 3.0},
//	})
package galsim

import (
	"context"
	"fmt"
	"os"
	"strconv"
	"strings"

	"galsim/internal/campaign"
	"galsim/internal/isa"
	"galsim/internal/machine"
	"galsim/internal/pipeline"
	"galsim/internal/power"
	"galsim/internal/workload"
)

// Machine names a built-in machine variant. Deprecated in favour of
// MachineSpec, which can express any clock-domain partitioning; the two
// built-in names keep working and resolve to the equivalent built-in specs.
type Machine string

// Machine variants.
const (
	// Base is the fully synchronous processor: one global clock, a
	// hierarchical clock distribution network (global grid + five local
	// grids), and ordinary pipe stages between logic blocks.
	Base Machine = "base"
	// GALS is the globally asynchronous locally synchronous processor: five
	// independent clock domains (fetch, decode, integer, FP, memory) joined
	// by mixed-clock FIFOs; no global clock grid.
	GALS Machine = "gals"
)

// MachineSpec is a declarative machine: named clock domains (each with a
// nominal frequency, an optional voltage table and a DVFS policy), an
// assignment of every pipeline structure — fetch, decode/rename/ROB/commit,
// integer, FP, load/store — to a domain, and per-link synchronization FIFO
// settings. The two classic variants are just the built-in specs named
// "base" and "gals" (see BuiltinMachine); any other partitioning of the
// pipeline is a spec you can write — the design space the paper explores.
// Its JSON form is accepted by Options.MachineSpec, the galsimd /machines
// endpoint and the galsim -machine flag.
type MachineSpec = machine.Spec

// ClockDomainSpec declares one clock domain of a MachineSpec.
type ClockDomainSpec = machine.DomainSpec

// MachineLinkSpec overrides one link class's synchronization FIFO geometry
// in a MachineSpec.
type MachineLinkSpec = machine.LinkSpec

// VoltagePoint is one entry of a clock domain's voltage table.
type VoltagePoint = machine.VoltPoint

// UnknownMachineError reports a Machine name that names no built-in spec
// (and, on the galsimd service, no uploaded one). Options.Validate returns
// it (errors.As-able) so callers can list the alternatives.
type UnknownMachineError = machine.UnknownError

// ParseMachineSpec decodes and validates a JSON machine spec (the format
// accepted by the galsimd /machines endpoint and the -machine <file.json>
// CLI flag). Unknown fields are rejected so typos fail loudly.
func ParseMachineSpec(data []byte) (MachineSpec, error) {
	return machine.Parse(data)
}

// Machines returns the built-in machine names. The returned slice is a
// fresh copy on every call; callers may mutate it freely.
func Machines() []string { return machine.BuiltinNames() }

// BuiltinMachine returns a built-in machine as a full MachineSpec — the
// natural starting point for a custom topology ("" selects base). Running
// an unmodified built-in spec is bit-identical to naming it via
// Options.Machine and hits the same result-cache entries.
func BuiltinMachine(name string) (MachineSpec, error) {
	return machine.ByName(name)
}

// MachineStructures lists the pipeline structures a MachineSpec assigns to
// clock domains, in pipeline order. The returned slice is a fresh copy on
// every call.
func MachineStructures() []string { return machine.Structures() }

// DomainNames lists the clock domain names of the built-in gals machine —
// the keys its runs accept in Options.Slowdowns — in pipeline order. A
// custom machine's runs key slowdowns by its own MachineSpec.DomainNames.
// The returned slice is a fresh copy on every call; callers may mutate it
// freely.
func DomainNames() []string { return campaign.DomainNames() }

// Benchmarks returns the available synthetic benchmark names (stand-ins for
// the paper's Spec95 and Mediabench workloads), sorted by suite then name.
// The returned slice is a fresh copy on every call; callers may mutate it
// freely.
func Benchmarks() []string { return workload.Names() }

// WorkloadProfile is a user-defined workload: a named sequence of
// instruction-mix phases the generator cycles through (see Options.Profile).
// A single-phase profile behaves like a custom benchmark; multiple phases
// give the run time-varying behaviour that DynamicDVFS can react to. Its
// JSON form is accepted by the galsimd service and the galsim CLI.
type WorkloadProfile = workload.ProfileSpec

// WorkloadPhase is one phase of a WorkloadProfile: either a built-in
// benchmark referenced by name or an inline PhaseProfile, running for a
// given number of instructions.
type WorkloadPhase = workload.PhaseSpec

// PhaseProfile statistically characterizes one phase (or one whole custom
// benchmark): instruction mix, branch population behaviour, dependency
// distances, and code/data footprints. It is validated exactly like the
// built-in benchmarks.
type PhaseProfile = workload.Profile

// Mix gives the fraction of dynamic instructions in each class; the
// remainder is plain integer ALU work.
type Mix = workload.Mix

// PatternMix describes the behavioural population of static branches.
type PatternMix = workload.PatternMix

// ParseWorkloadProfile decodes and validates a JSON workload profile (the
// format accepted by the galsimd /workloads endpoint and the galsim
// -profile flag). Unknown fields are rejected so typos fail loudly.
func ParseWorkloadProfile(data []byte) (WorkloadProfile, error) {
	return workload.ParseSpec(data)
}

// ParseSlowdowns parses the CLI syntax for Options.Slowdowns —
// comma-separated domain=factor pairs such as "fp=3,fetch=1.1" — used by
// the galsim front end. An empty string yields nil.
// Domain names and factor ranges are checked later by Options.Validate,
// which knows the machine variant.
func ParseSlowdowns(s string) (map[string]float64, error) {
	if s == "" {
		return nil, nil
	}
	out := map[string]float64{}
	for _, part := range strings.Split(s, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) != 2 {
			return nil, fmt.Errorf("galsim: bad slowdown entry %q (want domain=factor)", part)
		}
		f, err := strconv.ParseFloat(kv[1], 64)
		if err != nil {
			return nil, fmt.Errorf("galsim: bad slowdown factor in %q: %v", part, err)
		}
		out[kv[0]] = f
	}
	return out, nil
}

// BenchmarkInfo describes one benchmark's statistical profile.
type BenchmarkInfo struct {
	Name        string
	Suite       string
	BranchFrac  float64
	FPFrac      float64
	MemFrac     float64
	CodeBytes   int
	DataBytes   int
	Description string
}

// Describe returns a benchmark's profile summary.
func Describe(name string) (BenchmarkInfo, error) {
	p, err := workload.ByName(name)
	if err != nil {
		return BenchmarkInfo{}, err
	}
	return BenchmarkInfo{
		Name:       p.Name,
		Suite:      p.Suite,
		BranchFrac: p.Mix.Branch,
		FPFrac:     p.Mix.FPFrac(),
		MemFrac:    p.Mix.MemFrac(),
		CodeBytes:  p.CodeFootprint,
		DataBytes:  p.DataWorkingSet,
		Description: fmt.Sprintf("%s (%s): %.0f%% branches, %.0f%% FP, %.0f%% memory",
			p.Name, p.Suite, 100*p.Mix.Branch, 100*p.Mix.FPFrac(), 100*p.Mix.MemFrac()),
	}, nil
}

// Options configures one simulation run. Zero values select defaults: the
// base machine, 100 000 instructions, full-speed clocks, voltage scaling
// enabled.
type Options struct {
	// Benchmark is the built-in workload name (see Benchmarks). Exactly one
	// of Benchmark, Profile and Trace must be set.
	Benchmark string
	// Profile runs a user-defined (possibly phased) workload instead of a
	// built-in benchmark. Identical profile contents produce identical
	// cache identities under RunMany, regardless of pointer or path.
	Profile *WorkloadProfile
	// Trace replays a recorded instruction trace file (see RecordTrace and
	// galsim -replay) as the workload. When Instructions is zero the
	// replay defaults to the recorded run's committed-instruction count.
	// Requesting more instructions than the trace records is an error under
	// the recorded configuration (wrapping the stream would fabricate
	// provenance; see campaign.TraceLengthError) but wraps the trace for an
	// explicitly divergent what-if replay. WorkloadSeed is ignored (the
	// stream is fixed).
	Trace string
	// RecordTrace, when non-empty, records the workload stream delivered to
	// the pipeline — including wrong-path fetches — to this file, for later
	// replay via Trace. Recording never alters the run's results. Supported
	// by Run only (RunMany may serve results from cache, where there is no
	// stream to record).
	RecordTrace string
	// Warmup, when non-zero, captures a snapshot of the full machine state —
	// pipeline, caches, predictor, clocks, workload position — at the first
	// decode-cycle boundary with at least this many committed instructions,
	// written to SnapshotOut. Capture is a pure observation: the run's
	// results are byte-identical with or without it. Supported by Run only.
	Warmup uint64
	// SnapshotOut is the file the Warmup capture is written to (a versioned,
	// CRC-checked envelope; see internal/snapshot). Requires Warmup.
	SnapshotOut string
	// SnapshotIn resumes the run from a snapshot file captured under this
	// exact configuration (any instruction budget): the machine restores at
	// the snapshot's committed-instruction count and runs on to
	// Instructions, producing results byte-identical to a cold-start run. A
	// snapshot from any other configuration is rejected. The snapshot's
	// content joins the run's cache identity under RunMany.
	SnapshotIn string
	// Machine names a built-in processor variant (default Base).
	//
	// Deprecated: prefer MachineSpec, which can express any clock-domain
	// topology; Machine remains as an alias resolving to the built-in spec
	// of the same name. Setting both is an error.
	Machine Machine
	// MachineSpec runs a user-defined machine: a named clock-domain
	// topology over the pipeline structures (see MachineSpec). Identical
	// spec contents produce identical cache identities under RunMany and
	// across a galsim-fleet, regardless of pointer or upload path.
	MachineSpec *MachineSpec
	// Instructions is the number committed before the run ends (default
	// 100000).
	Instructions uint64
	// Slowdowns stretches named clock domains: 1.1 = 10% slower clock, 3 =
	// one-third frequency. Keys are DomainNames entries, or "all" for a
	// uniform slowdown. The base machine has a single clock, so it accepts
	// only "all" or its domain's own name, "core"; the two are equivalent.
	Slowdowns map[string]float64
	// DisableVoltageScaling keeps every domain at nominal supply voltage
	// even when slowed (frequency-only scaling); by default a slowed
	// domain's voltage is reduced per the paper's Equation 1.
	DisableVoltageScaling bool
	// WorkloadSeed seeds the synthetic instruction stream (default 42).
	WorkloadSeed int64
	// PhaseSeed seeds the random starting phases of the GALS local clocks
	// (default 1).
	PhaseSeed int64
	// MemoryOrdering selects the load/store disambiguation policy:
	// "perfect" (default; the study's oracle model), "conservative" (loads
	// wait for all older stores' addresses), or "addr-match" (loads wait
	// only on same-address older stores).
	MemoryOrdering string
	// LinkStyle selects the GALS inter-domain communication mechanism:
	// "fifo" (default; Chelcea-Nowick mixed-clock FIFOs) or "stretch"
	// (stretchable-clock handshakes, the §3.2 alternative).
	LinkStyle string
	// DynamicDVFS enables the online per-domain frequency/voltage controller
	// (GALS only): every few thousand cycles, execution domains with nearly
	// empty issue queues are slowed (and their voltage dropped), bottleneck
	// domains sped back up — the application-driven dynamic scaling the
	// paper's conclusion anticipates.
	DynamicDVFS bool
	// SampleInterval enables interval sampling: every this many decode-domain
	// cycles the simulator snapshots per-domain IPC, issue-queue occupancy,
	// FIFO depths, stall deltas and DVFS slowdowns into Result.Samples. Zero
	// (the default) disables sampling entirely — the hot path is untouched.
	// Values below 100 cycles are rejected by Validate.
	SampleInterval uint64
	// OnCommit, when non-nil, is invoked for every committed instruction in
	// program order — a tracing hook.
	OnCommit func(CommitEvent)
	// Timeline, when non-nil, attaches a microarchitecture event tracer to
	// the run: DVFS retunes, mixed-clock FIFO stall and backpressure
	// windows, squash/recovery spans and structure-occupancy transitions,
	// exportable as Chrome trace-event JSON via Result.Timeline. Like
	// OnCommit and RecordTrace it observes one execution, so it is
	// supported by Run only and never alters results or cache identities.
	Timeline *TimelineOptions
}

// TimelineOptions configures the tracer attached by Options.Timeline.
// The zero value records up to the default event cap and stops.
type TimelineOptions struct {
	// MaxEvents bounds the event buffer (default 1<<20).
	MaxEvents int
	// FlightRecorder keeps the last MaxEvents events instead of the first:
	// a cheap always-on crash/stall recorder dumped on demand.
	FlightRecorder bool
	// StallThreshold, in decode cycles without a commit, marks the
	// recorder triggered (see Timeline.Triggered) so front ends can dump
	// the flight buffer exactly when a pathological stall happens. 0
	// disables the trigger.
	StallThreshold uint64
	// Detail additionally records per-instruction push/pop instants on the
	// cross-domain links — finer causality at several times the event rate.
	Detail bool
}

// CommitEvent describes one committed instruction for tracing.
type CommitEvent struct {
	Seq          uint64
	PC           uint64
	Class        string
	FetchTimeNs  float64
	IssueTimeNs  float64
	CommitTimeNs float64
	SlipNs       float64
}

// Result reports one run's measurements.
type Result struct {
	Benchmark string
	Machine   Machine

	// Instruction counts.
	Committed        uint64
	Fetched          uint64
	WrongPathFetched uint64

	// Performance.
	SimSeconds float64 // simulated wall-clock time
	IPC        float64 // committed instructions per decode-domain cycle
	MIPS       float64 // committed instructions per simulated microsecond

	// Latency analysis (paper Figures 6-7).
	AvgSlipNs     float64 // mean fetch-to-commit latency
	FIFOSlipShare float64 // share of slip spent in inter-stage links

	// Speculation (paper Figure 8).
	MisspeculationFrac   float64 // wrong-path fraction of all fetched
	BranchMispredictRate float64 // mispredictions per correct-path branch

	// Energy and power (paper Figures 9-10).
	EnergyJoules    float64
	PowerWatts      float64
	EnergyBreakdown map[string]float64 // pJ by macro-block name

	// Structure occupancies.
	IntRATOccupancy float64
	FPRATOccupancy  float64
	ROBOccupancy    float64

	// Cache hit rates.
	L1IHitRate float64
	L1DHitRate float64
	L2HitRate  float64

	// Dynamic DVFS activity (zero unless Options.DynamicDVFS).
	Retunes        uint64
	FinalSlowdowns map[string]float64 // domain name -> final clock slowdown

	// Samples is the interval time-series (nil unless
	// Options.SampleInterval > 0). See WriteSamplesCSV for tabular export.
	Samples []Sample

	// Timeline is the event tracer attached via Options.Timeline (nil
	// otherwise); write it out with Timeline.WriteTrace and load the JSON
	// in Perfetto.
	Timeline *Timeline
}

// RelativePerformance returns other's speed normalized to r (values < 1
// mean other is slower), assuming equal instruction counts.
func (r Result) RelativePerformance(other Result) float64 {
	return r.SimSeconds / other.SimSeconds
}

// Validate reports the first problem with the options without running
// anything: unknown benchmarks, machines, memory orderings, link styles,
// malformed MachineSpecs, and slowdown keys outside the machine's domain
// names all produce errors that list the accepted values. An unknown
// Machine name is reported as an UnknownMachineError (errors.As-able)
// naming the built-ins. Run, RunMany and the galsimd HTTP API all surface
// the same messages.
func (o Options) Validate() error {
	spec, err := o.spec()
	if err != nil {
		return err
	}
	u, err := spec.Resolve()
	if err == nil && o.Warmup > 0 {
		err = u.CheckWarmup(o.Warmup)
	}
	return err
}

// spec checks the Options-only rules and builds the campaign unit.
func (o Options) spec() (campaign.RunSpec, error) {
	if o.Benchmark == "" && o.Profile == nil && o.Trace == "" {
		return campaign.RunSpec{}, fmt.Errorf("galsim: Options.Benchmark is required (one of %v) unless Options.Profile or Options.Trace is set", Benchmarks())
	}
	if o.SnapshotOut != "" && o.Warmup == 0 {
		return campaign.RunSpec{}, fmt.Errorf("galsim: Options.SnapshotOut requires Options.Warmup to say when to capture")
	}
	if o.Warmup > 0 && o.SnapshotOut == "" {
		return campaign.RunSpec{}, fmt.Errorf("galsim: Options.Warmup requires Options.SnapshotOut to receive the capture")
	}
	spec := campaign.RunSpec{
		Benchmark:      o.Benchmark,
		Profile:        o.Profile,
		Machine:        string(o.Machine),
		MachineSpec:    o.MachineSpec,
		Instructions:   o.Instructions,
		Slowdowns:      o.Slowdowns,
		FreqOnly:       o.DisableVoltageScaling,
		WorkloadSeed:   o.WorkloadSeed,
		PhaseSeed:      o.PhaseSeed,
		MemoryOrdering: o.MemoryOrdering,
		LinkStyle:      o.LinkStyle,
		DynamicDVFS:    o.DynamicDVFS,
		SampleInterval: o.SampleInterval,
	}
	if o.Trace != "" {
		spec.Trace = &campaign.TraceRef{Path: o.Trace}
	}
	if o.SnapshotIn != "" {
		spec.Snapshot = &campaign.SnapshotRef{Path: o.SnapshotIn}
	}
	return spec, nil
}

// Run executes one simulation.
func Run(o Options) (Result, error) {
	spec, err := o.spec()
	if err != nil {
		return Result{}, err
	}
	var hook func(*isa.Instr)
	if o.OnCommit != nil {
		user := o.OnCommit
		hook = func(in *isa.Instr) {
			user(CommitEvent{
				Seq:          uint64(in.Seq),
				PC:           in.PC,
				Class:        in.Class.String(),
				FetchTimeNs:  in.FetchTime.Nanoseconds(),
				IssueTimeNs:  in.IssueTime.Nanoseconds(),
				CommitTimeNs: in.CommitTime.Nanoseconds(),
				SlipNs:       in.Slip().Nanoseconds(),
			})
		}
	}
	var tap campaign.TimelineTap
	if o.Timeline != nil {
		tap = campaign.TimelineTap{
			Recorder:       NewTimeline(o.Timeline.MaxEvents, o.Timeline.FlightRecorder),
			Detail:         o.Timeline.Detail,
			StallThreshold: o.Timeline.StallThreshold,
		}
	}
	execOpts := campaign.ExecOpts{
		OnCommit:    hook,
		Tap:         tap,
		Warmup:      o.Warmup,
		SnapshotOut: o.SnapshotOut,
	}
	out := &createOnWrite{path: o.RecordTrace}
	if o.RecordTrace != "" {
		execOpts.TraceOut = out
	}
	st, err := campaign.ExecuteOpts(spec, execOpts)
	if out.err != nil {
		err = fmt.Errorf("galsim: creating trace file: %w", out.err)
	}
	if out.f != nil {
		if cerr := out.f.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("galsim: closing trace file: %w", cerr)
		}
		if err != nil {
			os.Remove(o.RecordTrace) // don't leave a truncated trace behind
		}
	}
	if err != nil {
		// A failed run still returns the timeline: the flight recorder's
		// whole point is a post-mortem of the events leading to failure.
		return Result{Timeline: tap.Recorder}, err
	}
	r := resultFrom(st.Benchmark, spec, st)
	r.Timeline = tap.Recorder
	return r, nil
}

// createOnWrite creates the file at path on its first Write, so a run that
// fails its checks leaves any file already at path as it was.
type createOnWrite struct {
	path string
	f    *os.File
	err  error // the error creating the file
}

func (w *createOnWrite) Write(p []byte) (int, error) {
	if w.f == nil {
		if w.f, w.err = os.Create(w.path); w.err != nil {
			return 0, w.err
		}
	}
	return w.f.Write(p)
}

// Backend executes batches of simulation units and returns their stats in
// input order: the process-local campaign engine (worker pool plus
// content-addressed result cache) or a distributed fleet coordinator that
// shards the batch across galsimd workers. Every backend is deterministic —
// results are byte-identical across backends, worker counts and retries.
type Backend = campaign.Backend

// LocalBackend returns the process-wide shared engine as a Backend: the
// default execution substrate of RunMany.
func LocalBackend() Backend { return campaign.Shared() }

// RunMany executes the given runs concurrently on a worker pool sized to
// GOMAXPROCS and returns their results in input order. Identical option
// sets — within one call or across calls — are simulated only once and
// served from an in-memory cache. Cancelling ctx stops scheduling new runs
// promptly and returns the context's error. Options.OnCommit is not
// supported (per-instruction tracing is inherently serial; use Run).
func RunMany(ctx context.Context, opts []Options) ([]Result, error) {
	return RunManyOn(ctx, campaign.Shared(), opts)
}

// RunManyOn is RunMany on an explicit execution backend. Within this
// module the two backends are LocalBackend (the shared engine — RunMany's
// substrate) and the cluster coordinator used by cmd/galsim-fleet, which
// fans the batch out across a galsimd worker fleet; external callers
// wanting distributed execution should drive a galsim-fleet coordinator's
// HTTP API instead. Results arrive in input order either way,
// byte-identical across backends.
func RunManyOn(ctx context.Context, b Backend, opts []Options) ([]Result, error) {
	return RunManyProgressOn(ctx, b, opts, nil)
}

// RunManyProgress is RunMany with live progress reporting: fn (when non-nil)
// receives a snapshot after every finished unit — completed, failed and
// cache-served counts out of the batch total. fn is called from worker
// goroutines and must be safe for concurrent use.
func RunManyProgress(ctx context.Context, opts []Options, fn ProgressFunc) ([]Result, error) {
	return RunManyProgressOn(ctx, campaign.Shared(), opts, fn)
}

// RunManyProgressOn is RunManyProgress on an explicit execution backend.
// Backends without native progress support still work: fn then receives a
// single terminal snapshot.
func RunManyProgressOn(ctx context.Context, b Backend, opts []Options, fn ProgressFunc) ([]Result, error) {
	if len(opts) == 0 {
		return nil, nil
	}
	specs := make([]campaign.RunSpec, len(opts))
	units := make([]*campaign.Unit, len(opts))
	for i, o := range opts {
		if o.OnCommit != nil {
			return nil, fmt.Errorf("galsim: RunMany does not support Options.OnCommit; use Run for traced runs")
		}
		if o.RecordTrace != "" {
			return nil, fmt.Errorf("galsim: RunMany does not support Options.RecordTrace; use Run to record a trace")
		}
		if o.Timeline != nil {
			return nil, fmt.Errorf("galsim: RunMany does not support Options.Timeline; use Run for timeline-traced runs")
		}
		if o.Warmup != 0 || o.SnapshotOut != "" {
			return nil, fmt.Errorf("galsim: RunMany does not support Options.Warmup/SnapshotOut; use Run to capture a snapshot (Options.SnapshotIn is fine: it is part of the run's identity)")
		}
		spec, err := o.spec()
		if err == nil {
			units[i], err = spec.Resolve()
		}
		if err != nil {
			return nil, fmt.Errorf("galsim: options[%d]: %w", i, err)
		}
		specs[i] = spec
	}
	stats, err := campaign.RunUnitsOn(ctx, b, units, 0, fn)
	if err != nil {
		return nil, err
	}
	results := make([]Result, len(opts))
	for i, u := range units {
		results[i] = resultFrom(u.WorkloadName(), specs[i], stats[i])
	}
	return results, nil
}

func resultFrom(name string, spec campaign.RunSpec, st pipeline.Stats) Result {
	breakdown := map[string]float64{}
	for _, b := range power.Blocks() {
		breakdown[b.String()] = st.EnergyBreakdown[b]
	}
	finalSlow := map[string]float64{}
	for d := pipeline.DomainID(0); d < pipeline.NumDomains; d++ {
		finalSlow[d.String()] = st.FinalSlowdowns[d]
	}
	return Result{
		Benchmark:            name,
		Machine:              Machine(spec.MachineName()),
		Committed:            st.Committed,
		Fetched:              st.Fetched,
		WrongPathFetched:     st.WrongPathFetched,
		SimSeconds:           st.SimTime.Seconds(),
		IPC:                  st.IPC(),
		MIPS:                 st.InstrPerSecond() / 1e6,
		AvgSlipNs:            st.AvgSlip().Nanoseconds(),
		FIFOSlipShare:        st.FIFOSlipShare(),
		MisspeculationFrac:   st.MisspeculationFrac(),
		BranchMispredictRate: st.MispredictRate(),
		EnergyJoules:         st.EnergyJoules(),
		PowerWatts:           st.AvgPowerWatts(),
		EnergyBreakdown:      breakdown,
		IntRATOccupancy:      st.AvgIntRAT,
		FPRATOccupancy:       st.AvgFPRAT,
		ROBOccupancy:         st.ROB.AvgOccupancy,
		L1IHitRate:           st.L1I.HitRate(),
		L1DHitRate:           st.L1D.HitRate(),
		L2HitRate:            st.L2.HitRate(),
		Retunes:              st.Retunes,
		FinalSlowdowns:       finalSlow,
		Samples:              st.Samples,
	}
}
