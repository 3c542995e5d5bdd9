// Package campaign turns the simulator into a sweep engine: a declarative
// Sweep spec (benchmarks × machines × slowdown grids × seeds) expands into
// deterministic RunSpec units, an Engine fans the units out over a worker
// pool with context cancellation, and a sharded content-addressed cache
// memoizes every completed run so identical specs — whether issued by the
// experiment drivers, the RunMany library API, or concurrent HTTP requests
// against cmd/galsimd — are simulated exactly once per process.
package campaign

import (
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sync/atomic"

	"galsim/internal/bpred"
	"galsim/internal/machine"
	"galsim/internal/pipeline"
	"galsim/internal/snapshot"
	"galsim/internal/trace"
	"galsim/internal/workload"
)

// DomainNames lists the clock domain names accepted as Slowdowns keys, in
// pipeline order. The returned slice is a fresh copy on every call.
func DomainNames() []string {
	names := make([]string, 0, int(pipeline.NumDomains))
	for d := pipeline.DomainID(0); d < pipeline.NumDomains; d++ {
		names = append(names, d.String())
	}
	return names
}

// TraceRef names a recorded instruction trace (see internal/trace) to
// replay as a run's workload. The cache identity of a trace-driven run is
// the trace's *content* (SHA256), never its path: copying or renaming a
// trace file does not change which runs it names.
type TraceRef struct {
	// Path locates the trace file.
	Path string `json:"path,omitempty"`
	// SHA256 is the hex content digest; filled automatically from Path when
	// empty. Callers that already know it can pin it to detect file drift.
	SHA256 string `json:"sha256,omitempty"`
}

// SnapshotRef names a captured simulation state (see internal/snapshot) to
// restore as a run's starting point instead of a cold machine. Like traces,
// the cache identity of a snapshot-seeded run is the snapshot's *content*
// (SHA256), never its path: a run restored from different state can never
// alias a cached cold-start result.
type SnapshotRef struct {
	// Path locates the snapshot file.
	Path string `json:"path,omitempty"`
	// SHA256 is the hex content digest of the snapshot file; filled
	// automatically from Path when empty. Callers that already know it can
	// pin it to detect file drift.
	SHA256 string `json:"sha256,omitempty"`
}

// RunSpec describes one simulation unit declaratively. It is the campaign
// engine's unit of work and unit of caching: two specs that canonicalize to
// the same bytes name the same deterministic run. The zero value of every
// optional field selects the paper's default machine.
//
// Exactly one workload source must be set: Benchmark (a built-in), Profile
// (a user-defined, possibly phased profile), or Trace (a recorded run).
type RunSpec struct {
	// Benchmark is a built-in workload name.
	Benchmark string `json:"benchmark,omitempty"`
	// Profile is a user-defined workload: one or more instruction-mix
	// phases. Its full content participates in the cache key, so two runs
	// of equal profiles hit the same cache entry regardless of naming.
	Profile *workload.ProfileSpec `json:"profile,omitempty"`
	// Trace replays a recorded instruction stream as the workload.
	Trace *TraceRef `json:"trace,omitempty"`
	// Snapshot restores a captured simulation state (see internal/snapshot)
	// as the run's starting point: the machine resumes at the snapshot's
	// committed-instruction count and runs on to Instructions. The snapshot
	// must have been captured under this spec's own warm identity,
	// which makes the result byte-identical to a cold-start run — the
	// golden differential gate in internal/pipeline proves it.
	Snapshot *SnapshotRef `json:"snapshot,omitempty"`
	// Machine names a built-in machine: "base" or "gals" (default "base").
	// Mutually exclusive with MachineSpec.
	Machine string `json:"machine,omitempty"`
	// MachineSpec is a full user-defined machine declaration: named clock
	// domains, a structure-to-domain assignment, and per-link FIFO settings
	// (see internal/machine). Its canonical content participates in the
	// cache key and travels with cluster jobs, so equal machines dedup
	// fleet-wide regardless of naming or upload path. A spec equal to a
	// built-in canonicalizes to the built-in's name.
	MachineSpec *machine.Spec `json:"machine_spec,omitempty"`
	// Instructions is the committed-instruction budget (default 100000).
	Instructions uint64 `json:"instructions,omitempty"`
	// Slowdowns stretches named clock domains (keys from DomainNames, or
	// "all" for a uniform stretch; values >= 1).
	Slowdowns map[string]float64 `json:"slowdowns,omitempty"`
	// FreqOnly disables the automatic voltage scaling of slowed domains.
	FreqOnly bool `json:"freq_only,omitempty"`
	// WorkloadSeed seeds the synthetic instruction stream (default 42).
	WorkloadSeed int64 `json:"workload_seed,omitempty"`
	// PhaseSeed seeds the GALS local-clock phases (default 1).
	PhaseSeed int64 `json:"phase_seed,omitempty"`
	// MemoryOrdering is "perfect", "conservative" or "addr-match".
	MemoryOrdering string `json:"memory_ordering,omitempty"`
	// LinkStyle is "fifo" or "stretch" (GALS inter-domain links).
	LinkStyle string `json:"link_style,omitempty"`
	// DynamicDVFS enables the online per-domain frequency/voltage controller.
	DynamicDVFS bool `json:"dynamic_dvfs,omitempty"`
	// SampleInterval, when non-zero, records an interval time-series of the
	// machine's internal state every that many decode cycles (see
	// pipeline.Sample). Zero — the default — disables sampling; the
	// omitempty tag keeps every pre-existing spec's cache key unchanged.
	SampleInterval uint64 `json:"sample_interval,omitempty"`

	// Ablation knobs; zero selects the paper's machine.
	FIFOSyncEdges int    `json:"fifo_sync_edges,omitempty"`
	FIFOCapacity  int    `json:"fifo_capacity,omitempty"`
	ZeroPhases    bool   `json:"zero_phases,omitempty"`
	Predictor     string `json:"predictor,omitempty"` // gshare|bimodal|taken|nottaken
}

// Canonical defaults, matching galsim.Run's zero-value behaviour.
const (
	defaultMachine        = "base"
	defaultInstructions   = 100_000
	defaultWorkloadSeed   = 42
	defaultPhaseSeed      = 1
	defaultMemoryOrdering = "perfect"
	defaultLinkStyle      = "fifo"
	defaultPredictor      = "gshare"
)

// Canonical returns the spec with every default made explicit and no-op
// slowdown entries removed, so that equal runs hash equally regardless of
// how sparsely the caller filled the struct.
//
// A spec with no input file, or with every digest pinned and a budget set
// (as the spec of every Unit is), needs nothing from a file and is
// canonicalized without opening one. Any other spec is resolved: its
// digests are pinned from the bytes resolve checked. A spec that fails to
// resolve keeps its digests as given, and a replay without a budget then
// takes the generic default.
func (s RunSpec) Canonical() RunSpec {
	if s.Trace != nil && (s.Trace.SHA256 == "" || s.Instructions == 0) ||
		s.Snapshot != nil && s.Snapshot.SHA256 == "" {
		if u, err := resolve(s); err == nil {
			return u.spec
		}
	}
	return s.canonical(0)
}

// canonical is Canonical without file access: trace and snapshot digests
// stay as given, and recorded is the replayed trace's recorded length (0
// when unknown).
func (s RunSpec) canonical(recorded uint64) RunSpec {
	if s.MachineSpec != nil && s.Machine == "" {
		// An inline spec equal to a built-in collapses to the built-in's
		// name, so uploads of (say) the literal gals machine share the
		// built-in's cache entries; anything else is carried in canonical
		// form. A spec alongside an explicit Machine name is left for
		// Validate to reject.
		ms := s.MachineSpec.Canonical()
		if name, ok := builtinByDigest[ms.Digest()]; ok {
			s.Machine = name
			s.MachineSpec = nil
		} else {
			s.MachineSpec = &ms
		}
	}
	if s.Machine == "" && s.MachineSpec == nil {
		s.Machine = defaultMachine
	}
	if s.Trace != nil && s.Instructions == 0 {
		// A replay's natural budget is the recorded run's length, not the
		// generic default: defaulting to 100000 against a shorter trace would
		// silently wrap it (see TraceLengthError). An unknown length falls
		// through to the generic default.
		s.Instructions = recorded
	}
	if s.Instructions == 0 {
		s.Instructions = defaultInstructions
	}
	if s.WorkloadSeed == 0 {
		s.WorkloadSeed = defaultWorkloadSeed
	}
	if s.Trace != nil {
		t := *s.Trace
		s.Trace = &t
		// A replayed stream is fixed; the workload seed cannot influence it.
		s.WorkloadSeed = defaultWorkloadSeed
	}
	if s.Snapshot != nil {
		sn := *s.Snapshot
		s.Snapshot = &sn
	}
	if s.PhaseSeed == 0 {
		s.PhaseSeed = defaultPhaseSeed
	}
	if s.MemoryOrdering == "" {
		s.MemoryOrdering = defaultMemoryOrdering
	}
	if s.LinkStyle == "" {
		s.LinkStyle = defaultLinkStyle
	}
	if s.Predictor == "" {
		s.Predictor = defaultPredictor
	}
	// A fully synchronous machine (the base built-in, or any user spec with
	// a single clock domain) has one clock at phase zero and no
	// inter-domain links: phase and link settings cannot influence the run,
	// so normalize them away to keep its cache keys collision-rich —
	// sweeping phase seeds over both machines must simulate the
	// synchronous reference once, not once per seed. A machine that cannot
	// be looked up is left alone for resolve to report.
	sole := "" // the lone clock domain of a synchronous machine
	if ms, err := s.machineSpec(); err == nil && len(ms.Domains) == 1 {
		sole = ms.Domains[0].Name
	}
	synchronous := sole != ""
	if s.FIFOSyncEdges == 0 || synchronous {
		s.FIFOSyncEdges = pipeline.DefaultFIFOSyncEdges
	}
	if s.FIFOCapacity == 0 || synchronous {
		s.FIFOCapacity = pipeline.DefaultFIFOCapacity
	}
	if synchronous {
		s.PhaseSeed = defaultPhaseSeed
		s.ZeroPhases = false
		s.LinkStyle = defaultLinkStyle
	}
	// A domain entry refines the uniform "all" stretch (see PipelineConfig),
	// so it is a no-op when it equals that stretch. On a synchronous machine
	// the lone domain's entry is the uniform stretch: it folds into "all",
	// winning when both are given.
	uniform, ok := s.Slowdowns["all"]
	if f, own := s.Slowdowns[sole]; synchronous && own {
		uniform, ok = f, true
	}
	if !ok {
		uniform = 1
	}
	var slow map[string]float64
	if uniform != 1 {
		slow = map[string]float64{"all": uniform}
	}
	for name, f := range s.Slowdowns {
		if name == "all" || (synchronous && name == sole) || f == uniform {
			continue
		}
		if slow == nil {
			slow = make(map[string]float64, len(s.Slowdowns))
		}
		slow[name] = f
	}
	s.Slowdowns = slow
	return s
}

// Key returns the spec's content address: a hex SHA-256 of its canonical
// JSON form. encoding/json writes map keys in sorted order, so the hash is
// stable across equal specs. Trace-driven runs are keyed by the trace's
// content digest, with the path stripped, so equal trace bytes at
// different paths share one cache entry. Key of a canonical spec opens no
// file. (A spec that fails to resolve keeps its path as a fallback
// identity; Validate rejects such specs before they reach the engine.)
func (s RunSpec) Key() string { return s.Canonical().key() }

// key is Key of a canonical spec.
func (s RunSpec) key() string {
	if s.Trace != nil && s.Trace.SHA256 != "" {
		s.Trace = &TraceRef{SHA256: s.Trace.SHA256}
	}
	if s.Snapshot != nil && s.Snapshot.SHA256 != "" {
		s.Snapshot = &SnapshotRef{SHA256: s.Snapshot.SHA256}
	}
	b, err := json.Marshal(s)
	if err != nil {
		// RunSpec contains only marshalable fields; this cannot happen.
		panic(fmt.Sprintf("campaign: marshaling RunSpec: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TraceLengthError reports a same-configuration replay asking for more
// instructions than the trace recorded. Wrapping the stream back to its
// start is sound for an explicitly divergent what-if replay (the stream
// already departs from the recording), but under the recorded configuration
// it would fabricate provenance: the run would claim to replay the
// recording while simulating instructions the recording never contained.
type TraceLengthError struct {
	Path      string
	Requested uint64
	Recorded  uint64
}

func (e *TraceLengthError) Error() string {
	return fmt.Sprintf("campaign: trace %s records %d instructions but the replay requests %d under the recorded configuration; lower the budget, or change the machine configuration to make the divergence explicit (a divergent replay wraps the stream)",
		e.Path, e.Recorded, e.Requested)
}

// replayConfigEquals reports whether this spec replays a trace under the
// exact configuration that recorded it — machine topology and every
// stream-shaping setting equal, only the workload source and budget
// differing. It decides whether an over-length replay is provenance
// fabrication (same config: TraceLengthError) or an explicit what-if
// (divergent config: the stream wraps).
func (s RunSpec) replayConfigEquals(meta trace.Meta) bool {
	if meta.MachineDigest != "" && s.MachineDigest() != meta.MachineDigest {
		return false
	}
	var rec RunSpec
	if len(meta.SpecJSON) == 0 || json.Unmarshal(meta.SpecJSON, &rec) != nil {
		// No recorded spec to compare against: the topology digest is the
		// only provenance we have, and it matched (or was absent).
		return true
	}
	// Compare only the settings that shape the instruction stream a machine
	// executes: strip the workload source, the budget and pure observation
	// taps. The inputs go before canonicalizing, so that no file a recorded
	// header names is ever opened.
	strip := func(s RunSpec) string {
		s.Benchmark, s.Profile, s.Trace, s.Snapshot = "", nil, nil, nil
		c := s.canonical(0)
		c.WorkloadSeed, c.Instructions, c.SampleInterval = 0, 0, 0
		return c.key()
	}
	return strip(rec) == strip(s)
}

// builtinByDigest maps the canonical digest of each built-in machine to its
// name, for the Canonical collapse; baseMachineDigest is the default
// machine's identity, which replay provenance checks against.
var builtinByDigest = func() map[string]string {
	m := map[string]string{}
	for _, sp := range machine.Builtins() {
		m[sp.Canonical().Digest()] = sp.Name
	}
	return m
}()

var baseMachineDigest = machine.Base().Digest()

// machineSpec looks up the spec's machine: the inline declaration, or the
// built-in the Machine field names. It does not check an inline
// declaration; resolve does, once.
func (s RunSpec) machineSpec() (machine.Spec, error) {
	if s.MachineSpec != nil {
		if s.Machine != "" {
			return machine.Spec{}, fmt.Errorf("campaign: machine %q and an inline machine spec are mutually exclusive; set one", s.Machine)
		}
		return *s.MachineSpec, nil
	}
	sp, err := machine.ByName(s.Machine)
	if err != nil {
		return machine.Spec{}, fmt.Errorf("campaign: %w", err)
	}
	return sp, nil
}

// MachineName returns the human-readable machine label: the built-in name
// or the inline spec's name.
func (s RunSpec) MachineName() string {
	switch {
	case s.MachineSpec != nil:
		return s.MachineSpec.Name
	case s.Machine == "":
		return defaultMachine
	default:
		return s.Machine
	}
}

// MachineDigest returns the canonical content digest of the spec's machine
// ("" when the machine cannot be looked up) — the topology identity recorded
// in trace provenance headers.
func (s RunSpec) MachineDigest() string {
	ms, err := s.machineSpec()
	if err != nil {
		return ""
	}
	return ms.Canonical().Digest()
}

// WorkloadName returns the human-readable name of the spec's workload
// source: the benchmark, the profile-spec name, or the replayed trace's
// recorded name (falling back to the path when the file is unreadable).
func (s RunSpec) WorkloadName() string {
	switch {
	case s.Profile != nil:
		return s.Profile.Name
	case s.Trace != nil:
		if meta, err := trace.ReadMeta(s.Trace.Path); err == nil && meta.Name != "" {
			return "replay:" + meta.Name
		}
		return "replay:" + s.Trace.Path
	default:
		return s.Benchmark
	}
}

// Validate reports the first problem with the spec, with errors phrased for
// end users of the library and the HTTP API alike.
func (s RunSpec) Validate() error {
	_, err := resolve(s)
	return err
}

// Resolve checks the spec as Validate does, reading each input file once,
// and returns the checked Unit for a caller to run, key or report. The unit
// holds neither file: its run reads each again. A refused spec's unit only
// names the refusal: its machine and workload.
func (s RunSpec) Resolve() (*Unit, error) {
	u, err := resolve(s)
	return u.light(), err
}

// Unit is a checked run: its spec's one resolve, which every later step
// uses instead of resolving the spec again. Its spec is canonical with each
// input digest pinned from the bytes resolve checked, so its key names
// exactly what it simulates. RunSpec.Resolve and Sweep.Units make units.
type Unit struct {
	spec     RunSpec
	key      string             // the content address of spec
	recorded uint64             // the replayed trace's recorded length
	machine  string             // the machine's name as the spec gave it
	workload string             // the workload's display name
	trace    *trace.Trace       // the replayed trace, for a Trace run
	snap     *snapshot.Snapshot // the starting state, for a Snapshot run
}

// Spec returns the unit's canonical spec.
func (u *Unit) Spec() RunSpec { return u.spec }

// WorkloadName returns the display name of the unit's workload.
func (u *Unit) WorkloadName() string { return u.workload }

// light drops a unit's loaded inputs: its run reads each file again, and
// fails if the bytes no longer match. The copy shares nothing with u that
// refers to them, so a light unit never keeps a trace or snapshot alive.
func (u *Unit) light() *Unit {
	l := *u
	l.trace, l.snap = nil, nil
	return &l
}

// resolves counts resolve calls, for the tests that hold each unit to one.
var resolves atomic.Uint64

// resolve is the one place a run is checked, and the only code in this
// package that reads a trace or snapshot body: each entry point that takes
// a bare spec resolves it once, and a light unit's run once more. It reads
// each input file once, pins or checks its digest, decodes it, and reports
// the first problem with the spec, with a unit that labels the refusal as
// MachineName and WorkloadName would.
func resolve(s RunSpec) (*Unit, error) {
	resolves.Add(1)
	r := &Unit{machine: s.MachineName(), workload: s.Benchmark}
	sources := 0
	for _, set := range []bool{s.Benchmark != "", s.Profile != nil, s.Trace != nil} {
		if set {
			sources++
		}
	}
	switch {
	case sources == 0:
		return r, fmt.Errorf("campaign: benchmark is required (one of %v) unless a custom profile or a trace is given", workload.Names())
	case sources > 1:
		r.workload = s.WorkloadName()
		return r, fmt.Errorf("campaign: benchmark, profile and trace are mutually exclusive; set exactly one")
	}
	switch {
	case s.Benchmark != "":
		if _, err := workload.ByName(s.Benchmark); err != nil {
			return r, err
		}
	case s.Profile != nil:
		r.workload = s.Profile.Name
		if err := s.Profile.Validate(); err != nil {
			return r, err
		}
	case s.Trace != nil:
		r.workload = "replay:" + s.Trace.Path
		if s.Trace.Path == "" {
			return r, fmt.Errorf("campaign: trace requires a path")
		}
		t, err := trace.Load(s.Trace.Path) // full decode: every record must parse
		if err != nil {
			r.workload = s.WorkloadName() // the header may still name it
			return r, fmt.Errorf("campaign: trace: %w", err)
		}
		r.workload = "replay:" + cmp.Or(t.Meta.Name, s.Trace.Path)
		if digest := t.Digest(); s.Trace.SHA256 != "" && s.Trace.SHA256 != digest {
			return r, fmt.Errorf("campaign: trace %s content digest %s does not match the requested %s (file changed?)",
				s.Trace.Path, digest, s.Trace.SHA256)
		}
		// Topology provenance: a replay that names no machine runs on the
		// default base topology. If the trace records a different topology,
		// that default would silently change the machine underneath the
		// replay — error loudly instead. Choosing a machine explicitly is an
		// intentional what-if ("what would this exact program have done
		// there") and is always allowed.
		if s.Machine == "" && s.MachineSpec == nil &&
			t.Meta.MachineDigest != "" && t.Meta.MachineDigest != baseMachineDigest {
			on := "an unknown machine"
			var rs RunSpec
			if json.Unmarshal(t.Meta.SpecJSON, &rs) == nil && rs.MachineName() != "" {
				on = fmt.Sprintf("machine %q", rs.MachineName())
			}
			return r, fmt.Errorf("campaign: trace %s was recorded on %s (topology digest %.12s...), not the default base machine; set the machine explicitly — the recorded one to reproduce the run, or any other for a what-if replay",
				s.Trace.Path, on, t.Meta.MachineDigest)
		}
		r.trace, r.recorded = t, t.Meta.Instructions
	}
	r.spec = s.canonical(r.recorded)
	if t := r.trace; t != nil {
		r.spec.Trace.SHA256 = t.Digest()
		// Budget vs recorded length: under the recorded configuration an
		// over-length replay would silently wrap the stream and fabricate
		// provenance; an explicitly divergent replay keeps the wrap (its
		// stream already departs from the recording). The canonical budget
		// is what matters — a zero budget defaults to the recorded length.
		if want, n := r.spec.Instructions, t.Meta.Instructions; n > 0 && want > n && s.replayConfigEquals(t.Meta) {
			return r, &TraceLengthError{Path: s.Trace.Path, Requested: want, Recorded: n}
		}
	}
	if s.Snapshot != nil {
		if s.Snapshot.Path == "" {
			return r, fmt.Errorf("campaign: snapshot requires a path")
		}
		b, err := os.ReadFile(s.Snapshot.Path)
		if err == nil {
			r.snap, err = snapshot.DecodeBytes(b)
		}
		if err != nil {
			return r, fmt.Errorf("campaign: snapshot %s: %w", s.Snapshot.Path, err)
		}
		sum := sha256.Sum256(b)
		digest := hex.EncodeToString(sum[:])
		if s.Snapshot.SHA256 != "" && s.Snapshot.SHA256 != digest {
			return r, fmt.Errorf("campaign: snapshot %s content digest %s does not match the requested %s (file changed?)",
				s.Snapshot.Path, digest, s.Snapshot.SHA256)
		}
		r.spec.Snapshot.SHA256 = digest
		if want := r.warmKey(); r.snap.SpecKey != want {
			return r, fmt.Errorf("campaign: snapshot %s was captured under a different run configuration (its spec key %.12s..., this run's warm key %.12s...); restoring it here would not reproduce this run — re-capture under this configuration",
				s.Snapshot.Path, r.snap.SpecKey, want)
		}
		if budget := r.spec.Instructions; r.snap.Committed >= budget {
			return r, fmt.Errorf("campaign: snapshot %s already holds %d committed instructions, at or beyond this run's %d-instruction budget; raise Instructions or use an earlier snapshot",
				s.Snapshot.Path, r.snap.Committed, budget)
		}
	}
	ms, err := s.machineSpec()
	if err == nil && s.MachineSpec != nil {
		err = ms.Validate()
	}
	if err != nil {
		return r, err
	}
	if err := validateSlowdownsFor(ms, s.Slowdowns); err != nil {
		return r, err
	}
	if _, ok := memoryOrderings[s.MemoryOrdering]; !ok {
		return r, fmt.Errorf("campaign: unknown memory ordering %q (want perfect, conservative or addr-match)", s.MemoryOrdering)
	}
	if _, ok := linkStyles[s.LinkStyle]; !ok {
		return r, fmt.Errorf("campaign: unknown link style %q (want fifo or stretch)", s.LinkStyle)
	}
	if _, ok := predictors[s.Predictor]; !ok {
		return r, fmt.Errorf("campaign: unknown predictor %q (want gshare, bimodal, taken or nottaken)", s.Predictor)
	}
	if s.FIFOSyncEdges < 0 || s.FIFOCapacity < 0 {
		return r, fmt.Errorf("campaign: FIFO sync edges (%d) and capacity (%d) must be non-negative",
			s.FIFOSyncEdges, s.FIFOCapacity)
	}
	if s.SampleInterval != 0 && s.SampleInterval < 100 {
		return r, fmt.Errorf("campaign: sample_interval %d is too short (minimum 100 decode cycles, or 0 to disable sampling)", s.SampleInterval)
	}
	if s.DynamicDVFS && !ms.DynamicCapable() {
		return r, fmt.Errorf("campaign: dynamic DVFS requires a machine with a dynamic-capable clock domain; %q has none (use the gals machine, or declare a domain with \"dvfs\": \"dynamic\")", ms.Name)
	}
	r.key = r.spec.key()
	return r, nil
}

// config is PipelineConfig of the unit, built from its canonical spec. It
// checks nothing: resolve did.
func (u *Unit) config() pipeline.Config {
	c := u.spec
	ms, _ := c.machineSpec()
	topo := ms.Topology()
	cfg := pipeline.DefaultConfig(topo)
	cfg.WorkloadSeed = c.WorkloadSeed
	cfg.PhaseSeed = c.PhaseSeed
	cfg.AutoVoltage = !c.FreqOnly
	cfg.ZeroPhases = c.ZeroPhases
	cfg.FIFOSyncEdges = c.FIFOSyncEdges
	cfg.FIFOCapacity = c.FIFOCapacity
	cfg.MemDisambig = memoryOrderings[c.MemoryOrdering]
	cfg.LinkStyle = linkStyles[c.LinkStyle]
	cfg.Predictor = predictors[c.Predictor]
	cfg.DynamicDVFS = c.DynamicDVFS
	cfg.SampleInterval = c.SampleInterval
	// A slowdown key names a clock domain of the machine; it stretches
	// every structure the domain owns, so structures sharing a clock carry
	// equal factors. Apply "all" first so a per-domain entry may refine a
	// uniform stretch.
	if f, ok := c.Slowdowns["all"]; ok {
		cfg.SetUniformSlowdown(f)
	}
	for d := range cfg.Slowdowns {
		if f, ok := c.Slowdowns[topo.Domains[topo.Of[d]].Name]; ok {
			cfg.Slowdowns[d] = f
		}
	}
	return cfg
}

// warmKey is the run's warm-up identity: the content address of the run
// with the instruction budget and any snapshot seed normalized away. Two
// runs that share a warm key execute bit-identical prefixes, so a snapshot
// captured under one resumes the other exactly — the grouping relation
// behind sweep warm-up sharing and the compatibility check behind
// RunSpec.Snapshot restores.
func (u *Unit) warmKey() string {
	c := u.spec
	c.Instructions, c.Snapshot = 0, nil
	return c.canonical(u.recorded).key()
}

// validateSlowdownsFor checks a slowdown map against a machine's clock
// structure: keys must name the machine's clock domains (or be "all" for a
// uniform stretch) and factors must be >= 1. A single-clock machine
// therefore accepts only "all" and its own domain's name.
func validateSlowdownsFor(ms machine.Spec, slowdowns map[string]float64) error {
	valid := map[string]bool{"all": true}
	for _, d := range ms.DomainNames() {
		valid[d] = true
	}
	for name, f := range slowdowns {
		if !valid[name] {
			if len(ms.Domains) == 1 {
				return fmt.Errorf("campaign: unknown clock domain %q in slowdowns: machine %q has a single clock (domain %q); use \"all\" for a uniform slowdown",
					name, ms.Name, ms.Domains[0].Name)
			}
			return fmt.Errorf("campaign: unknown clock domain %q for machine %q in slowdowns (its domains: %v, or \"all\" for a uniform slowdown)",
				name, ms.Name, ms.DomainNames())
		}
		// !(f >= 1) also rejects NaN, which would otherwise pass every
		// comparison and blow up later in the JSON content hash.
		if math.IsInf(f, 0) || !(f >= 1) {
			return fmt.Errorf("campaign: slowdown %q = %v must be a finite factor >= 1 (1 = full speed, 2 = half frequency)", name, f)
		}
	}
	return nil
}

// memoryOrderings, linkStyles and predictors map every accepted spelling
// of a setting, the empty default included, to its pipeline value.
var (
	memoryOrderings = map[string]pipeline.MemDisambiguation{
		"": pipeline.DisambigPerfect, "perfect": pipeline.DisambigPerfect,
		"conservative": pipeline.DisambigConservative, "addr-match": pipeline.DisambigAddrMatch,
	}
	linkStyles = map[string]pipeline.LinkStyle{"": pipeline.LinkFIFO, "fifo": pipeline.LinkFIFO, "stretch": pipeline.LinkStretch}
	predictors = map[string]bpred.Kind{
		"": bpred.GShare, bpred.GShare.String(): bpred.GShare, bpred.Bimodal.String(): bpred.Bimodal,
		bpred.Taken.String(): bpred.Taken, bpred.NotTaken.String(): bpred.NotTaken,
	}
)

// NewSource builds the spec's workload instruction source — synthetic
// generator, phased profile generator, or trace replayer — along with the
// workload's display name.
func (s RunSpec) NewSource() (workload.InstrSource, string, error) {
	u, err := resolve(s)
	if err != nil {
		return nil, "", err
	}
	return u.source(), u.workload, nil
}

// source builds the instruction source of a loaded unit.
func (u *Unit) source() workload.InstrSource {
	s := u.spec
	switch {
	case s.Profile != nil:
		return workload.NewSpecSource(*s.Profile, s.WorkloadSeed)
	case s.Trace != nil:
		return trace.NewReplaySource(u.trace)
	default:
		prof, _ := workload.ByName(s.Benchmark)
		return workload.NewGenerator(prof, s.WorkloadSeed)
	}
}

// PipelineConfig translates the spec into a full machine configuration:
// the resolved MachineSpec becomes the pipeline's clock topology, and the
// run settings (seeds, slowdowns, link ablations) are layered on top.
func (s RunSpec) PipelineConfig() (pipeline.Config, error) {
	u, err := resolve(s)
	if err != nil {
		return pipeline.Config{}, err
	}
	return u.config(), nil
}
