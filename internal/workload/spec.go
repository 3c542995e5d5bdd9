package workload

import (
	"bytes"
	"fmt"

	"galsim/internal/httpjson"
)

// PhaseSpec is one phase of a user-defined workload: a statistical profile
// (either a built-in benchmark referenced by name, or an inline custom
// Profile) that runs for Instructions correct-path instructions before the
// workload moves to the next phase.
type PhaseSpec struct {
	// Benchmark names a built-in profile to use for this phase.
	Benchmark string `json:"benchmark,omitempty"`
	// Profile is an inline custom profile for this phase; exactly one of
	// Benchmark and Profile must be set.
	Profile *Profile `json:"profile,omitempty"`
	// Instructions is the phase length in correct-path instructions.
	Instructions uint64 `json:"instructions"`
}

// ProfileSpec is a user-defined workload: a named sequence of phases the
// generator cycles through. A single-phase spec is an ordinary custom
// benchmark; multi-phase specs give the run non-stationary behaviour
// (changing instruction mixes over time) that dynamic per-domain DVFS can
// react to. The JSON form is the wire format accepted by galsim.Options,
// the galsimd service and the galsim CLI.
type ProfileSpec struct {
	Name   string      `json:"name"`
	Phases []PhaseSpec `json:"phases"`
}

// maxPhases bounds a spec's phase count; specs are user input.
const maxPhases = 1024

// Validate reports the first problem with the spec: it is checked exactly
// like the built-in benchmarks (every inline profile passes
// Profile.Validate), plus the structural rules of the phase sequence.
func (s ProfileSpec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("workload: profile spec without name")
	}
	for _, builtin := range Names() {
		if s.Name == builtin {
			return fmt.Errorf("workload: profile spec name %q collides with a built-in benchmark", s.Name)
		}
	}
	if len(s.Phases) == 0 {
		return fmt.Errorf("workload: profile spec %q has no phases", s.Name)
	}
	if len(s.Phases) > maxPhases {
		return fmt.Errorf("workload: profile spec %q has %d phases, above the %d limit", s.Name, len(s.Phases), maxPhases)
	}
	for i, ph := range s.Phases {
		switch {
		case ph.Benchmark == "" && ph.Profile == nil:
			return fmt.Errorf("workload: %s phase %d: set either benchmark or profile", s.Name, i)
		case ph.Benchmark != "" && ph.Profile != nil:
			return fmt.Errorf("workload: %s phase %d: benchmark and profile are mutually exclusive", s.Name, i)
		case ph.Instructions == 0:
			return fmt.Errorf("workload: %s phase %d: instructions must be positive", s.Name, i)
		}
		if ph.Benchmark != "" {
			if _, err := ByName(ph.Benchmark); err != nil {
				return fmt.Errorf("workload: %s phase %d: %w", s.Name, i, err)
			}
		} else if err := s.phaseProfile(i).Validate(); err != nil {
			return fmt.Errorf("workload: %s phase %d: %w", s.Name, i, err)
		}
	}
	return nil
}

// phaseProfile returns phase i's concrete profile. Inline profiles without
// a name or suite get defaults derived from the spec.
func (s ProfileSpec) phaseProfile(i int) Profile {
	ph := s.Phases[i]
	if ph.Benchmark != "" {
		prof, _ := ByName(ph.Benchmark)
		return prof
	}
	prof := *ph.Profile
	if prof.Name == "" {
		prof.Name = fmt.Sprintf("%s/phase%d", s.Name, i)
	}
	if prof.Suite == "" {
		prof.Suite = "custom"
	}
	return prof
}

// ParseSpec decodes and validates a JSON profile spec, rejecting unknown
// fields so typos in hand-written profiles fail loudly.
func ParseSpec(data []byte) (ProfileSpec, error) {
	var spec ProfileSpec
	if err := httpjson.DecodeStrict(bytes.NewReader(data), &spec); err != nil {
		return ProfileSpec{}, fmt.Errorf("workload: decoding profile spec: %w", err)
	}
	if err := spec.Validate(); err != nil {
		return ProfileSpec{}, err
	}
	return spec, nil
}

// NewSpecSource builds the instruction source for a spec that passed
// Validate: a plain Generator for single-phase specs, a PhasedGenerator
// otherwise. It checks nothing. The source is deterministic for a given
// (spec, seed) pair.
func NewSpecSource(spec ProfileSpec, seed int64) InstrSource {
	profs := make([]Profile, len(spec.Phases))
	quotas := make([]uint64, len(spec.Phases))
	for i := range spec.Phases {
		profs[i] = spec.phaseProfile(i)
		quotas[i] = spec.Phases[i].Instructions
	}
	if len(profs) == 1 {
		return NewGenerator(profs[0], seed)
	}
	return NewPhasedGenerator(spec.Name, profs, quotas, seed)
}
