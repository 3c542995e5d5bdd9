package workload

import (
	"encoding/json"
	"testing"
)

// inlineProfile is a minimal valid custom phase profile for tests.
func inlineProfile(name string) *Profile {
	return &Profile{
		Name:          name,
		Mix:           Mix{IntALU: 0.5, Load: 0.2, Store: 0.1, Branch: 0.15},
		CodeFootprint: 4 << 10,
		Patterns:      PatternMix{Biased: 0.6, Loop: 0.3, Random: 0.1},
		LoopLength:    16, RandomTakenProb: 0.5,
		DepDistP:       0.3,
		DataWorkingSet: 64 << 10, SeqFrac: 0.5, StrideBytes: 8,
	}
}

func TestProfileSpecValidate(t *testing.T) {
	valid := ProfileSpec{
		Name: "mine",
		Phases: []PhaseSpec{
			{Benchmark: "gcc", Instructions: 1000},
			{Profile: inlineProfile(""), Instructions: 2000},
		},
	}
	if err := valid.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}

	cases := []struct {
		name string
		mut  func(*ProfileSpec)
	}{
		{"empty name", func(s *ProfileSpec) { s.Name = "" }},
		{"built-in collision", func(s *ProfileSpec) { s.Name = "gcc" }},
		{"no phases", func(s *ProfileSpec) { s.Phases = nil }},
		{"phase without source", func(s *ProfileSpec) { s.Phases[0].Benchmark = "" }},
		{"phase with both sources", func(s *ProfileSpec) { s.Phases[1].Benchmark = "perl" }},
		{"zero instructions", func(s *ProfileSpec) { s.Phases[0].Instructions = 0 }},
		{"unknown benchmark", func(s *ProfileSpec) { s.Phases[0].Benchmark = "nonesuch" }},
		{"bad inline mix", func(s *ProfileSpec) { s.Phases[1].Profile.Mix.Branch = 2.0 }},
	}
	for _, tc := range cases {
		spec := valid
		spec.Phases = append([]PhaseSpec{}, valid.Phases...)
		p := *valid.Phases[1].Profile
		spec.Phases[1].Profile = &p
		tc.mut(&spec)
		if err := spec.Validate(); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// TestNamesReturnsFreshCopies locks in that Names (and All, which backs
// it) hand out fresh sorted slices: a caller scribbling over the result
// must not corrupt the registry for later callers.
func TestNamesReturnsFreshCopies(t *testing.T) {
	first := Names()
	want := append([]string{}, first...)
	for i := range first {
		first[i] = "CLOBBERED"
	}
	again := Names()
	if len(again) != len(want) {
		t.Fatalf("Names() length changed: %d vs %d", len(again), len(want))
	}
	for i := range want {
		if again[i] != want[i] {
			t.Fatalf("Names()[%d] = %q after caller mutation, want %q", i, again[i], want[i])
		}
	}
	all := All()
	all[0].Name = "CLOBBERED"
	if All()[0].Name == "CLOBBERED" {
		t.Error("All() returned shared profile storage")
	}
}

func TestParseSpecRejectsUnknownFields(t *testing.T) {
	if _, err := ParseSpec([]byte(`{"name":"x","phasez":[]}`)); err == nil {
		t.Error("unknown field accepted")
	}
	if _, err := ParseSpec([]byte(`not json`)); err == nil {
		t.Error("garbage accepted")
	}
}

func TestSpecSourceDeterministic(t *testing.T) {
	spec := ProfileSpec{
		Name: "two-phase",
		Phases: []PhaseSpec{
			{Benchmark: "adpcm", Instructions: 500},
			{Benchmark: "fpppp", Instructions: 500},
		},
	}
	streams := make([][]uint64, 2)
	for run := range streams {
		src := NewSpecSource(spec, 7)
		for i := 0; i < 2000; i++ {
			in := src.Next()
			streams[run] = append(streams[run], in.PC, uint64(in.Class))
		}
	}
	for i := range streams[0] {
		if streams[0][i] != streams[1][i] {
			t.Fatalf("stream diverged at element %d: %d vs %d", i, streams[0][i], streams[1][i])
		}
	}
}

// TestPhasedGeneratorSwitchesMix drives a two-phase source whose phases
// have extreme, opposite mixes and checks the produced stream actually
// changes character at the phase boundary.
func TestPhasedGeneratorSwitchesMix(t *testing.T) {
	intProf := inlineProfile("intish")
	fpProf := inlineProfile("fpish")
	fpProf.Mix = Mix{IntALU: 0.15, FPAdd: 0.3, FPMul: 0.25, Load: 0.2, Branch: 0.05}
	fpProf.FPLoadFrac = 0.8

	spec := ProfileSpec{
		Name: "int-then-fp",
		Phases: []PhaseSpec{
			{Profile: intProf, Instructions: 2000},
			{Profile: fpProf, Instructions: 2000},
		},
	}
	src := NewSpecSource(spec, 1)
	pg, ok := src.(*PhasedGenerator)
	if !ok {
		t.Fatalf("multi-phase spec built %T, want *PhasedGenerator", src)
	}
	countFP := func(n int) (fp int) {
		for i := 0; i < n; i++ {
			if src.Next().Class.IsFP() {
				fp++
			}
		}
		return fp
	}
	fpA := countFP(2000)
	if pg.Phase() != 1 {
		t.Fatalf("after phase-1 quota, Phase() = %d", pg.Phase())
	}
	fpB := countFP(2000)
	if pg.Phase() != 0 || pg.Switches() != 2 {
		t.Fatalf("after phase-2 quota, Phase() = %d, Switches() = %d", pg.Phase(), pg.Switches())
	}
	if fpA != 0 {
		t.Errorf("integer phase produced %d FP instructions", fpA)
	}
	if fpB < 800 {
		t.Errorf("FP phase produced only %d/2000 FP instructions", fpB)
	}
}

// TestSinglePhaseSpecIsPlainGenerator pins the fast path: one phase needs
// no phased wrapper.
func TestSinglePhaseSpecIsPlainGenerator(t *testing.T) {
	src := NewSpecSource(ProfileSpec{
		Name:   "solo",
		Phases: []PhaseSpec{{Benchmark: "gcc", Instructions: 1000}},
	}, 42)
	if _, ok := src.(*Generator); !ok {
		t.Errorf("single-phase spec built %T, want *Generator", src)
	}
}

// FuzzProfileSpec hammers the JSON profile decoder and validator, then runs
// a short generation burst on every accepted spec: user-supplied profiles
// reach the galsimd service, so acceptance must imply a generator that
// neither panics nor wedges.
func FuzzProfileSpec(f *testing.F) {
	seed, err := json.Marshal(ProfileSpec{
		Name: "seed",
		Phases: []PhaseSpec{
			{Benchmark: "gcc", Instructions: 100},
			{Profile: inlineProfile("p"), Instructions: 100},
		},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte(`{"name":"x","phases":[{"benchmark":"adpcm","instructions":1}]}`))
	f.Add([]byte(`{}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := ParseSpec(data)
		if err != nil {
			return
		}
		src := NewSpecSource(spec, 1)
		for i := 0; i < 64; i++ {
			if in := src.Next(); in == nil {
				t.Fatal("generator produced nil instruction")
			}
		}
		src.StartWrongPath(src.CurrentPC() + 16)
		for i := 0; i < 8; i++ {
			src.NextWrongPath()
		}
		src.EndWrongPath()
	})
}
