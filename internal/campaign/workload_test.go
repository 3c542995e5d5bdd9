package campaign

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"galsim/internal/workload"
)

func customProfile(name string) *workload.ProfileSpec {
	return &workload.ProfileSpec{
		Name: name,
		Phases: []workload.PhaseSpec{
			{Benchmark: "adpcm", Instructions: 2000},
			{Benchmark: "fpppp", Instructions: 2000},
		},
	}
}

// TestCustomProfileCacheHit is the acceptance criterion for user-defined
// workloads: two identical custom-profile runs — built from separate spec
// values — must share one cache entry, because the key covers the profile's
// content, not a name or pointer.
func TestCustomProfileCacheHit(t *testing.T) {
	eng := NewEngine(2)
	specA := RunSpec{Profile: customProfile("mine"), Instructions: 4000}
	specB := RunSpec{Profile: customProfile("mine"), Instructions: 4000}
	if specA.Key() != specB.Key() {
		t.Fatalf("equal profiles keyed differently: %s vs %s", specA.Key(), specB.Key())
	}

	stA, err := eng.Run(context.Background(), specA)
	if err != nil {
		t.Fatal(err)
	}
	stB, err := eng.Run(context.Background(), specB)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stA, stB) {
		t.Error("identical profile specs produced different stats")
	}
	cs := eng.Stats()
	if cs.Misses != 1 || cs.Hits != 1 {
		t.Errorf("cache = %+v, want exactly 1 miss and 1 hit", cs)
	}

	// A semantically different profile must miss.
	specC := RunSpec{Profile: customProfile("mine"), Instructions: 4000}
	specC.Profile.Phases[0].Instructions = 2001
	if specC.Key() == specA.Key() {
		t.Error("different profile contents share a cache key")
	}
}

func TestRunSpecSourceExclusivity(t *testing.T) {
	cases := []RunSpec{
		{}, // no source at all
		{Benchmark: "gcc", Profile: customProfile("x")},
		{Benchmark: "gcc", Trace: &TraceRef{Path: "nope"}},
		{Profile: customProfile("x"), Trace: &TraceRef{Path: "nope"}},
	}
	for i, spec := range cases {
		if err := spec.Validate(); err == nil {
			t.Errorf("case %d: spec with %d sources validated", i, i)
		}
	}
}

func TestTraceSpecValidationAndKey(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.trace")

	// Missing file: a clear error, not a panic.
	if err := (RunSpec{Trace: &TraceRef{Path: path}}).Validate(); err == nil {
		t.Error("missing trace file validated")
	}

	// Record a real trace through the capture tap.
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ExecuteOpts(RunSpec{Benchmark: "adpcm", Instructions: 3000}, ExecOpts{TraceOut: f}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	spec := RunSpec{Trace: &TraceRef{Path: path}, Instructions: 3000}
	if err := spec.Validate(); err != nil {
		t.Fatalf("recorded trace failed validation: %v", err)
	}
	if got := spec.WorkloadName(); got != "replay:adpcm" {
		t.Errorf("WorkloadName() = %q", got)
	}

	// The key is content-addressed: copies at other paths, in this
	// directory or another, key equally, by the SHA-256 of the bytes...
	copyPath := filepath.Join(dir, "copy.trace")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	if err := os.Mkdir(filepath.Join(dir, "sub"), 0o755); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{copyPath, filepath.Join(dir, "sub", "b.trace")} {
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		c := RunSpec{Trace: &TraceRef{Path: p}, Instructions: 3000}
		if spec.Key() != c.Key() {
			t.Errorf("same trace content at %s keyed differently", p)
		}
		if got := c.Canonical().Trace.SHA256; got != hex.EncodeToString(sum[:]) {
			t.Errorf("trace at %s pinned digest %q, want the SHA-256 of its bytes", p, got)
		}
	}

	// ...and a pinned digest that no longer matches the file is rejected.
	bad := RunSpec{Trace: &TraceRef{Path: path, SHA256: strings.Repeat("0", 64)}, Instructions: 3000}
	if err := bad.Validate(); err == nil {
		t.Error("stale pinned digest validated")
	}

	// A mangled file fails validation outright (dropping the final byte
	// always cuts the last record mid-field).
	if err := os.WriteFile(copyPath, data[:len(data)-1], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := (RunSpec{Trace: &TraceRef{Path: copyPath}}).Validate(); err == nil {
		t.Error("truncated trace validated")
	}
}

// TestProfileRunThroughEngine exercises the full campaign path for a phased
// profile, including the canonical JSON round trip the HTTP API relies on.
func TestProfileRunThroughEngine(t *testing.T) {
	spec := RunSpec{Profile: customProfile("roundtrip"), Machine: "gals", Instructions: 5000}
	st, err := Execute(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Committed != 5000 {
		t.Errorf("committed = %d", st.Committed)
	}
	if st.Benchmark != "roundtrip" {
		t.Errorf("stats carry benchmark %q, want the profile name", st.Benchmark)
	}
	sum := Summarize(spec, st)
	if sum.Benchmark != "roundtrip" {
		t.Errorf("summary benchmark = %q", sum.Benchmark)
	}
}
