// Package workload generates the synthetic instruction streams that stand in
// for the paper's Spec95 and Mediabench binaries.
//
// The paper's per-benchmark observations are driven by instruction-mix
// statistics it cites explicitly — fpppp has one branch per 67 instructions
// while most applications have one per five or six; perl has virtually no
// floating-point instructions; ijpeg has a very low proportion of memory
// accesses; gcc has low instruction bandwidth. Each Profile encodes those
// statistics (class mix, branch population behaviour, dependency distances,
// code footprint and data locality), and a Generator lazily materializes a
// *static program* consistent with them: every program counter gets a fixed
// instruction (class, registers, branch target, access pattern) on first
// visit, exactly like real code. The dynamic stream then emerges from
// walking that program, so downstream hardware models (gshare, BTB, caches)
// see self-consistent history and their hit/miss rates *emerge* rather than
// being dialed in.
//
// The generator also produces wrong-path streams: after a misprediction the
// front end keeps fetching from the wrong target until the branch resolves,
// and those instructions come from the same static program.
package workload

import (
	"fmt"
	"sort"
)

// Mix gives the fraction of dynamic instructions in each class. The
// fractions must be non-negative and sum to at most 1; the remainder is
// plain integer ALU work.
type Mix struct {
	IntALU float64 `json:"int_alu,omitempty"`
	IntMul float64 `json:"int_mul,omitempty"`
	FPAdd  float64 `json:"fp_add,omitempty"`
	FPMul  float64 `json:"fp_mul,omitempty"`
	FPDiv  float64 `json:"fp_div,omitempty"`
	Load   float64 `json:"load,omitempty"`
	Store  float64 `json:"store,omitempty"`
	Branch float64 `json:"branch,omitempty"`
}

// Sum returns the total of all fractions.
func (m Mix) Sum() float64 {
	return m.IntALU + m.IntMul + m.FPAdd + m.FPMul + m.FPDiv + m.Load + m.Store + m.Branch
}

// FPFrac returns the floating-point fraction of the mix.
func (m Mix) FPFrac() float64 { return m.FPAdd + m.FPMul + m.FPDiv }

// MemFrac returns the memory fraction of the mix.
func (m Mix) MemFrac() float64 { return m.Load + m.Store }

// PatternMix describes the behavioural population of static branches: what
// fraction are strongly biased (easy), loop-closing (easy with a counter),
// alternating (easy for gshare), and data-dependent random (hard). The
// fractions must sum to 1.
type PatternMix struct {
	Biased      float64 `json:"biased,omitempty"`      // ~97% one direction
	Loop        float64 `json:"loop,omitempty"`        // taken LoopLength-1 times, then not taken
	Alternating float64 `json:"alternating,omitempty"` // strict T/N alternation
	Random      float64 `json:"random,omitempty"`      // coin flip with RandomTakenProb
}

// Sum returns the total of all fractions.
func (p PatternMix) Sum() float64 { return p.Biased + p.Loop + p.Alternating + p.Random }

// Profile statistically characterizes one benchmark. The JSON form is the
// wire format of user-defined profiles (ProfileSpec phases, the galsimd
// workload-upload endpoint and the galsim CLI).
type Profile struct {
	Name  string `json:"name,omitempty"`
	Suite string `json:"suite,omitempty"` // "spec95int", "spec95fp", "mediabench", "custom"

	Mix Mix `json:"mix"`

	// FPLoadFrac is the fraction of loads whose destination is an FP
	// register (FP data being streamed to the FP cluster).
	FPLoadFrac float64 `json:"fp_load_frac,omitempty"`

	// CodeFootprint is the byte size of the instruction working set; it
	// determines I-cache behaviour (16 KB direct-mapped L1I).
	CodeFootprint int `json:"code_footprint"`

	// Branch population behaviour.
	Patterns        PatternMix `json:"patterns"`
	LoopLength      int        `json:"loop_length"`                 // iterations of loop-closing branches
	RandomTakenProb float64    `json:"random_taken_prob,omitempty"` // bias of "random" branches

	// DepDistP is the parameter of the geometric distribution of register
	// dependency distances: larger p = shorter dependencies = less ILP.
	DepDistP float64 `json:"dep_dist_p"`

	// Data-side locality.
	DataWorkingSet int     `json:"data_working_set"`   // bytes of data working set
	SeqFrac        float64 `json:"seq_frac,omitempty"` // fraction of static memory instructions that stream sequentially
	StrideBytes    int     `json:"stride_bytes"`       // stride of streaming accesses
}

// Validate reports an error for a malformed profile.
func (p Profile) Validate() error {
	switch {
	case p.Name == "":
		return fmt.Errorf("workload: profile without name")
	case p.Mix.Sum() > 1+1e-9:
		return fmt.Errorf("workload: %s: mix sums to %v > 1", p.Name, p.Mix.Sum())
	case p.Mix.Branch < 0 || p.Mix.Load < 0 || p.Mix.Store < 0:
		return fmt.Errorf("workload: %s: negative mix fraction", p.Name)
	case p.FPLoadFrac < 0 || p.FPLoadFrac > 1:
		return fmt.Errorf("workload: %s: FPLoadFrac %v outside [0,1]", p.Name, p.FPLoadFrac)
	case p.CodeFootprint < 256:
		return fmt.Errorf("workload: %s: code footprint %d too small", p.Name, p.CodeFootprint)
	case p.CodeFootprint > maxFootprint:
		return fmt.Errorf("workload: %s: code footprint %d above the %d limit", p.Name, p.CodeFootprint, maxFootprint)
	case absf(p.Patterns.Sum()-1) > 1e-6:
		return fmt.Errorf("workload: %s: branch patterns sum to %v != 1", p.Name, p.Patterns.Sum())
	case p.LoopLength < 2:
		return fmt.Errorf("workload: %s: loop length %d < 2", p.Name, p.LoopLength)
	case p.LoopLength > 1<<24:
		return fmt.Errorf("workload: %s: loop length %d above the %d limit", p.Name, p.LoopLength, 1<<24)
	case p.RandomTakenProb < 0 || p.RandomTakenProb > 1:
		return fmt.Errorf("workload: %s: RandomTakenProb %v outside [0,1]", p.Name, p.RandomTakenProb)
	case p.DepDistP <= 0 || p.DepDistP >= 1:
		return fmt.Errorf("workload: %s: DepDistP %v outside (0,1)", p.Name, p.DepDistP)
	case p.DataWorkingSet < 1024:
		return fmt.Errorf("workload: %s: data working set %d too small", p.Name, p.DataWorkingSet)
	case p.DataWorkingSet > maxFootprint:
		return fmt.Errorf("workload: %s: data working set %d above the %d limit", p.Name, p.DataWorkingSet, maxFootprint)
	case p.SeqFrac < 0 || p.SeqFrac > 1:
		return fmt.Errorf("workload: %s: SeqFrac %v outside [0,1]", p.Name, p.SeqFrac)
	case p.StrideBytes <= 0:
		return fmt.Errorf("workload: %s: stride %d must be positive", p.Name, p.StrideBytes)
	case p.StrideBytes > 1<<20:
		return fmt.Errorf("workload: %s: stride %d above the %d limit", p.Name, p.StrideBytes, 1<<20)
	}
	return nil
}

// maxFootprint bounds user-supplied code footprints and data working sets
// (1 GiB): profiles arrive over HTTP and from files, and the generator's
// lazy static program must stay bounded by sane inputs, not trusted ones.
const maxFootprint = 1 << 30

func absf(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// profiles is the registry of benchmark stand-ins. Mix numbers follow the
// published characterizations of Spec95 and Mediabench at the granularity
// the paper relies on: branch density, FP density, memory density, and
// footprints. They are stand-ins, not measurements of the original binaries.
var profiles = []Profile{
	// ---- Spec95 integer ----
	{
		Name: "compress", Suite: "spec95int",
		Mix:           Mix{IntALU: 0.42, IntMul: 0.01, Load: 0.22, Store: 0.12, Branch: 0.17},
		CodeFootprint: 6 << 10,
		Patterns:      PatternMix{Biased: 0.6, Loop: 0.25, Alternating: 0.05, Random: 0.1},
		LoopLength:    24, RandomTakenProb: 0.5,
		DepDistP:       0.28,
		DataWorkingSet: 512 << 10, SeqFrac: 0.55, StrideBytes: 8,
	},
	{
		Name: "gcc", Suite: "spec95int",
		// Low instruction bandwidth: big code footprint (heavy I-cache
		// missing) and branchy control flow.
		Mix:           Mix{IntALU: 0.38, IntMul: 0.01, Load: 0.24, Store: 0.13, Branch: 0.19},
		CodeFootprint: 96 << 10,
		Patterns:      PatternMix{Biased: 0.63, Loop: 0.2, Alternating: 0.05, Random: 0.12},
		LoopLength:    10, RandomTakenProb: 0.45,
		DepDistP:       0.28,
		DataWorkingSet: 1 << 20, SeqFrac: 0.35, StrideBytes: 8,
	},
	{
		Name: "go", Suite: "spec95int",
		Mix:           Mix{IntALU: 0.43, IntMul: 0.01, Load: 0.22, Store: 0.10, Branch: 0.19},
		CodeFootprint: 48 << 10,
		Patterns:      PatternMix{Biased: 0.55, Loop: 0.24, Alternating: 0.05, Random: 0.16},
		LoopLength:    12, RandomTakenProb: 0.5,
		DepDistP:       0.28,
		DataWorkingSet: 256 << 10, SeqFrac: 0.30, StrideBytes: 8,
	},
	{
		Name: "ijpeg", Suite: "spec95int",
		// Very low proportion of memory accesses (paper §5.2); compute bound.
		Mix:           Mix{IntALU: 0.55, IntMul: 0.06, Load: 0.12, Store: 0.05, Branch: 0.16},
		CodeFootprint: 14 << 10,
		Patterns:      PatternMix{Biased: 0.6, Loop: 0.27, Alternating: 0.05, Random: 0.08},
		LoopLength:    16, RandomTakenProb: 0.5,
		DepDistP:       0.28,
		DataWorkingSet: 192 << 10, SeqFrac: 0.70, StrideBytes: 8,
	},
	{
		Name: "li", Suite: "spec95int",
		Mix:           Mix{IntALU: 0.40, IntMul: 0.0, Load: 0.26, Store: 0.14, Branch: 0.18},
		CodeFootprint: 20 << 10,
		Patterns:      PatternMix{Biased: 0.63, Loop: 0.22, Alternating: 0.05, Random: 0.1},
		LoopLength:    8, RandomTakenProb: 0.5,
		DepDistP:       0.28,
		DataWorkingSet: 128 << 10, SeqFrac: 0.40, StrideBytes: 8,
	},
	{
		Name: "m88ksim", Suite: "spec95int",
		Mix:           Mix{IntALU: 0.44, IntMul: 0.01, Load: 0.20, Store: 0.09, Branch: 0.20},
		CodeFootprint: 28 << 10,
		Patterns:      PatternMix{Biased: 0.65, Loop: 0.2, Alternating: 0.05, Random: 0.1},
		LoopLength:    20, RandomTakenProb: 0.5,
		DepDistP:       0.28,
		DataWorkingSet: 96 << 10, SeqFrac: 0.45, StrideBytes: 8,
	},
	{
		Name: "perl", Suite: "spec95int",
		// Virtually no floating-point instructions (paper §5.2).
		Mix:           Mix{IntALU: 0.40, IntMul: 0.01, Load: 0.25, Store: 0.13, Branch: 0.18},
		CodeFootprint: 56 << 10,
		Patterns:      PatternMix{Biased: 0.63, Loop: 0.2, Alternating: 0.05, Random: 0.12},
		LoopLength:    10, RandomTakenProb: 0.5,
		DepDistP:       0.28,
		DataWorkingSet: 512 << 10, SeqFrac: 0.35, StrideBytes: 8,
	},
	{
		Name: "vortex", Suite: "spec95int",
		Mix:           Mix{IntALU: 0.36, IntMul: 0.0, Load: 0.27, Store: 0.16, Branch: 0.17},
		CodeFootprint: 72 << 10,
		Patterns:      PatternMix{Biased: 0.67, Loop: 0.18, Alternating: 0.05, Random: 0.1},
		LoopLength:    12, RandomTakenProb: 0.5,
		DepDistP:       0.28,
		DataWorkingSet: 2 << 20, SeqFrac: 0.40, StrideBytes: 8,
	},
	// ---- Spec95 floating point ----
	{
		Name: "fpppp", Suite: "spec95fp",
		// Exceptionally small branch fraction: one branch per 67
		// instructions (paper §5.1); enormous basic blocks of FP work.
		Mix:           Mix{IntALU: 0.18, IntMul: 0.0, FPAdd: 0.22, FPMul: 0.22, FPDiv: 0.015, Load: 0.25, Store: 0.10, Branch: 0.015},
		FPLoadFrac:    0.80,
		CodeFootprint: 24 << 10,
		Patterns:      PatternMix{Biased: 0.7, Loop: 0.25, Alternating: 0, Random: 0.05},
		LoopLength:    40, RandomTakenProb: 0.5,
		DepDistP:       0.15,
		DataWorkingSet: 256 << 10, SeqFrac: 0.75, StrideBytes: 8,
	},
	{
		Name: "swim", Suite: "spec95fp",
		Mix:           Mix{IntALU: 0.20, IntMul: 0.0, FPAdd: 0.22, FPMul: 0.18, FPDiv: 0.005, Load: 0.24, Store: 0.10, Branch: 0.055},
		FPLoadFrac:    0.85,
		CodeFootprint: 8 << 10,
		Patterns:      PatternMix{Biased: 0.32, Loop: 0.65, Alternating: 0, Random: 0.03},
		LoopLength:    64, RandomTakenProb: 0.5,
		DepDistP:       0.17,
		DataWorkingSet: 4 << 20, SeqFrac: 0.90, StrideBytes: 8,
	},
	{
		Name: "applu", Suite: "spec95fp",
		Mix:           Mix{IntALU: 0.22, IntMul: 0.0, FPAdd: 0.20, FPMul: 0.17, FPDiv: 0.02, Load: 0.25, Store: 0.08, Branch: 0.06},
		FPLoadFrac:    0.85,
		CodeFootprint: 16 << 10,
		Patterns:      PatternMix{Biased: 0.33, Loop: 0.6, Alternating: 0, Random: 0.07},
		LoopLength:    32, RandomTakenProb: 0.5,
		DepDistP:       0.17,
		DataWorkingSet: 2 << 20, SeqFrac: 0.85, StrideBytes: 8,
	},
	// ---- Mediabench ----
	{
		Name: "adpcm", Suite: "mediabench",
		// Tiny kernel, integer only, tight serial dependences.
		Mix:           Mix{IntALU: 0.52, IntMul: 0.0, Load: 0.14, Store: 0.07, Branch: 0.22},
		CodeFootprint: 2 << 10,
		Patterns:      PatternMix{Biased: 0.55, Loop: 0.25, Alternating: 0.1, Random: 0.1},
		LoopLength:    16, RandomTakenProb: 0.5,
		DepDistP:       0.4,
		DataWorkingSet: 32 << 10, SeqFrac: 0.90, StrideBytes: 4,
	},
	{
		Name: "epic", Suite: "mediabench",
		Mix:           Mix{IntALU: 0.40, IntMul: 0.03, FPAdd: 0.08, FPMul: 0.08, FPDiv: 0.005, Load: 0.20, Store: 0.08, Branch: 0.12},
		FPLoadFrac:    0.40,
		CodeFootprint: 10 << 10,
		Patterns:      PatternMix{Biased: 0.5, Loop: 0.37, Alternating: 0.05, Random: 0.08},
		LoopLength:    24, RandomTakenProb: 0.5,
		DepDistP:       0.25,
		DataWorkingSet: 256 << 10, SeqFrac: 0.75, StrideBytes: 8,
	},
	{
		Name: "g721", Suite: "mediabench",
		Mix:           Mix{IntALU: 0.50, IntMul: 0.04, Load: 0.16, Store: 0.08, Branch: 0.18},
		CodeFootprint: 4 << 10,
		Patterns:      PatternMix{Biased: 0.58, Loop: 0.27, Alternating: 0.05, Random: 0.1},
		LoopLength:    12, RandomTakenProb: 0.5,
		DepDistP:       0.35,
		DataWorkingSet: 24 << 10, SeqFrac: 0.70, StrideBytes: 4,
	},
	{
		Name: "mpeg2", Suite: "mediabench",
		Mix:           Mix{IntALU: 0.45, IntMul: 0.05, FPAdd: 0.04, FPMul: 0.04, Load: 0.20, Store: 0.08, Branch: 0.13},
		FPLoadFrac:    0.25,
		CodeFootprint: 18 << 10,
		Patterns:      PatternMix{Biased: 0.57, Loop: 0.33, Alternating: 0, Random: 0.1},
		LoopLength:    16, RandomTakenProb: 0.5,
		DepDistP:       0.28,
		DataWorkingSet: 512 << 10, SeqFrac: 0.80, StrideBytes: 8,
	},
}

// All returns every registered profile, sorted by suite then name. The
// returned slice is a fresh copy on every call; callers may mutate it
// without corrupting the registry.
func All() []Profile {
	out := make([]Profile, len(profiles))
	copy(out, profiles)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Suite != out[j].Suite {
			return out[i].Suite < out[j].Suite
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// Names returns the profile names in All() order, as a fresh copy on
// every call.
func Names() []string {
	all := All()
	out := make([]string, len(all))
	for i, p := range all {
		out[i] = p.Name
	}
	return out
}

// ByName looks up a profile.
func ByName(name string) (Profile, error) {
	for _, p := range profiles {
		if p.Name == name {
			return p, nil
		}
	}
	return Profile{}, fmt.Errorf("workload: unknown benchmark %q (known: %v)", name, Names())
}

// IntegerBenchmarks returns the names of the Spec95 integer stand-ins, the
// population Figure 8's "integer applications" statistic is computed over.
func IntegerBenchmarks() []string {
	var out []string
	for _, p := range All() {
		if p.Suite == "spec95int" {
			out = append(out, p.Name)
		}
	}
	return out
}
