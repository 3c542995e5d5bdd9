package campaign

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"galsim/internal/machine"
)

// TestMachineSpecGoldenEquivalence is the API-redesign contract: the
// built-in machines re-expressed as explicit MachineSpecs — the new
// topology-driven construction path — reproduce the PR 3 golden Stats
// snapshots byte-for-byte. Any divergence means the declarative path builds
// a subtly different machine than the classic variant switch did.
func TestMachineSpecGoldenEquivalence(t *testing.T) {
	cases := []struct {
		golden string // snapshot name under internal/pipeline/testdata
		spec   machine.Spec
		bench  string
		dvfs   bool
	}{
		{"base_gcc", machine.Base(), "gcc", false},
		{"base_swim", machine.Base(), "swim", false},
		{"base_perl", machine.Base(), "perl", false},
		{"gals_gcc", machine.GALS(), "gcc", false},
		{"gals_swim", machine.GALS(), "swim", false},
		{"gals_perl", machine.GALS(), "perl", false},
		{"gals_dyndvfs_perl", machine.GALS(), "perl", true},
	}
	for _, tc := range cases {
		t.Run(tc.golden, func(t *testing.T) {
			spec := tc.spec
			spec.Name = "user-" + spec.Name // a user spec, not the built-in name
			st, err := Execute(RunSpec{
				Benchmark:    tc.bench,
				MachineSpec:  &spec,
				Instructions: 20_000,
				DynamicDVFS:  tc.dvfs,
			}, nil)
			if err != nil {
				t.Fatal(err)
			}
			got, err := json.MarshalIndent(st, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, '\n')
			path := filepath.Join("..", "pipeline", "testdata", "golden_"+tc.golden+".json")
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				wl := bytes.Split(want, []byte("\n"))
				gl := bytes.Split(got, []byte("\n"))
				for i := 0; i < len(wl) && i < len(gl); i++ {
					if !bytes.Equal(wl[i], gl[i]) {
						t.Fatalf("MachineSpec-built %s diverged from golden at line %d:\n  golden: %s\n  got:    %s",
							tc.golden, i+1, wl[i], gl[i])
					}
				}
				t.Fatalf("MachineSpec-built %s diverged from golden (line counts %d vs %d)", tc.golden, len(wl), len(gl))
			}
		})
	}
}

// TestMachineSpecBuiltinCacheCollapse: a spec equal to a built-in machine
// canonicalizes to the built-in's name, so both forms share one cache
// identity — uploading the literal gals machine must not fork the cache.
func TestMachineSpecBuiltinCacheCollapse(t *testing.T) {
	gals := machine.GALS()
	byName := RunSpec{Benchmark: "gcc", Machine: "gals"}
	bySpec := RunSpec{Benchmark: "gcc", MachineSpec: &gals}
	if byName.Key() != bySpec.Key() {
		t.Errorf("built-in-equal spec has key %s, named machine %s; want equal", bySpec.Key(), byName.Key())
	}
	c := bySpec.Canonical()
	if c.MachineSpec != nil || c.Machine != "gals" {
		t.Errorf("canonical form did not collapse to the built-in name: %+v", c)
	}

	// A genuinely different machine must not collapse, and its key must be
	// stable across spec copies (the upload-twice case).
	tri := triDomainSpec()
	a := RunSpec{Benchmark: "gcc", MachineSpec: &tri}
	tri2 := triDomainSpec()
	b := RunSpec{Benchmark: "gcc", MachineSpec: &tri2}
	if a.Key() != b.Key() {
		t.Error("equal custom machines produced different cache keys")
	}
	if a.Key() == byName.Key() {
		t.Error("custom machine collided with the built-in's cache key")
	}
	if c := a.Canonical(); c.MachineSpec == nil {
		t.Error("custom machine was collapsed away")
	}
}

// triDomainSpec is the user-authored 3-domain machine the acceptance
// criteria exercise end to end.
func triDomainSpec() machine.Spec {
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

// TestTriDomainMachineRuns: a 3-domain machine simulates deterministically,
// accepts slowdowns keyed by its own domain names, and rejects keys from
// machines it is not.
func TestTriDomainMachineRuns(t *testing.T) {
	tri := triDomainSpec()
	spec := RunSpec{Benchmark: "gcc", MachineSpec: &tri, Instructions: 6_000,
		Slowdowns: map[string]float64{"exec": 1.5}}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	st1, err := Execute(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	st2, err := Execute(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	b1, _ := json.Marshal(st1)
	b2, _ := json.Marshal(st2)
	if !bytes.Equal(b1, b2) {
		t.Error("3-domain machine is not deterministic")
	}
	if st1.Committed != 6_000 {
		t.Errorf("committed = %d", st1.Committed)
	}
	// int and fp share the exec clock; the slowdown must land on both.
	if st1.FinalSlowdowns[2] != 1.5 || st1.FinalSlowdowns[3] != 1.5 {
		t.Errorf("exec slowdown not applied to both structures: %v", st1.FinalSlowdowns)
	}
	if st1.FinalSlowdowns[0] != 1 || st1.FinalSlowdowns[4] != 1 {
		t.Errorf("slowdown leaked outside the exec domain: %v", st1.FinalSlowdowns)
	}

	bad := spec
	bad.Slowdowns = map[string]float64{"fp": 2} // a gals domain, not a tri domain
	err = bad.Validate()
	if err == nil || !strings.Contains(err.Error(), "front") {
		t.Errorf("foreign slowdown key error = %v, want one listing tri's domains", err)
	}
}

// TestUnknownMachineTypedError: an unknown machine surfaces as
// machine.UnknownError at Validate time, before anything runs.
func TestUnknownMachineTypedError(t *testing.T) {
	err := RunSpec{Benchmark: "gcc", Machine: "warp9"}.Validate()
	var unknown machine.UnknownError
	if !errors.As(err, &unknown) || unknown.Name != "warp9" {
		t.Fatalf("error = %#v, want machine.UnknownError for warp9", err)
	}
	for _, b := range machine.BuiltinNames() {
		if !strings.Contains(err.Error(), b) {
			t.Errorf("error %q does not list built-in %q", err, b)
		}
	}
	// Machine and MachineSpec together are ambiguous.
	tri := triDomainSpec()
	err = RunSpec{Benchmark: "gcc", Machine: "gals", MachineSpec: &tri}.Validate()
	if err == nil || !strings.Contains(err.Error(), "mutually exclusive") {
		t.Errorf("both-set error = %v", err)
	}
}

// TestTraceTopologyProvenance: a trace records its machine's canonical
// digest; replaying it without choosing a machine must error loudly when
// the recorded topology is not the default, while an explicit machine
// choice (reproduction or what-if) is honoured.
func TestTraceTopologyProvenance(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "gals.trace")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	rec := RunSpec{Benchmark: "gcc", Machine: "gals", Instructions: 4_000}
	recStats, err := ExecuteOpts(rec, ExecOpts{TraceOut: f})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// No machine named: the silent base default would change the topology.
	err = RunSpec{Trace: &TraceRef{Path: path}, Instructions: 4_000}.Validate()
	if err == nil || !strings.Contains(err.Error(), "recorded on") {
		t.Fatalf("silent cross-topology replay error = %v", err)
	}

	// The recorded machine reproduces the run.
	st, err := Execute(RunSpec{Trace: &TraceRef{Path: path}, Machine: "gals", Instructions: 4_000}, nil)
	if err != nil {
		t.Fatal(err)
	}
	st.Benchmark = recStats.Benchmark // replays are labeled "replay:<name>"
	b1, _ := json.Marshal(recStats)
	b2, _ := json.Marshal(st)
	if !bytes.Equal(b1, b2) {
		t.Error("explicit-machine replay did not reproduce the recorded run")
	}

	// An explicit different machine is an intentional what-if.
	if err := (RunSpec{Trace: &TraceRef{Path: path}, Machine: "base", Instructions: 4_000}).Validate(); err != nil {
		t.Errorf("explicit what-if replay rejected: %v", err)
	}

	// A base-machine recording keeps replaying with no machine named.
	basePath := filepath.Join(dir, "base.trace")
	bf, err := os.Create(basePath)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ExecuteOpts(RunSpec{Benchmark: "gcc", Instructions: 4_000}, ExecOpts{TraceOut: bf}); err != nil {
		t.Fatal(err)
	}
	if err := bf.Close(); err != nil {
		t.Fatal(err)
	}
	if err := (RunSpec{Trace: &TraceRef{Path: basePath}, Instructions: 4_000}).Validate(); err != nil {
		t.Errorf("default-topology replay rejected: %v", err)
	}
}
