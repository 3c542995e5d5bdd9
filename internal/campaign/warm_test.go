package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"galsim/internal/isa"
	"galsim/internal/snapshot"
)

// TestSweepWarmSharingByteIdentical is the sweep half of the PR's golden
// differential gate: a warmed-snapshot-shared sweep must reproduce the
// unshared sweep's JSON output exactly, while actually sharing (the engine
// counters prove instructions were saved).
func TestSweepWarmSharingByteIdentical(t *testing.T) {
	sweep := Sweep{
		Benchmarks:       []string{"gcc", "swim"},
		Machines:         []string{"base", "gals"},
		InstructionsGrid: []uint64{12_000, 18_000, 24_000},
	}

	cold := NewEngine(4)
	unshared, err := RunSweepOn(context.Background(), cold, sweep)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := json.MarshalIndent(unshared, "", " ")
	if err != nil {
		t.Fatal(err)
	}

	warm := NewEngine(4)
	sweep.Warmup = 6_000
	shared, err := RunSweepOn(context.Background(), warm, sweep)
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, err := json.MarshalIndent(shared, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Errorf("warm-shared sweep output differs from unshared sweep output\nunshared: %.400s\nshared:   %.400s", wantJSON, gotJSON)
	}
	groups, saved := warm.WarmSharing()
	// 2 benchmarks x 2 machines = 4 prefix groups, each with 3 budgets: 2
	// resumed units per group, each skipping >= 6000 warm-up instructions.
	if groups != 4 {
		t.Errorf("WarmSharing groups = %d, want 4", groups)
	}
	if saved < 4*2*6_000 {
		t.Errorf("WarmSharing saved = %d instructions, want >= %d", saved, 4*2*6_000)
	}
	if g, s := cold.WarmSharing(); g != 0 || s != 0 {
		t.Errorf("unshared engine reports warm sharing (groups=%d saved=%d), want none", g, s)
	}
}

// TestRunAllWarmDivergentUnitsWarmIndependently pins the fallback: units
// with no prefix peers (machine-divergent operating points) still run, cold,
// with results identical to plain RunAll.
func TestRunAllWarmDivergentUnitsWarmIndependently(t *testing.T) {
	specs := []RunSpec{
		{Benchmark: "gcc", Machine: "gals", Instructions: 10_000},
		{Benchmark: "gcc", Machine: "gals", Instructions: 10_000, Slowdowns: map[string]float64{"fp": 2}},
		{Benchmark: "gcc", Machine: "gals", Instructions: 10_000, Slowdowns: map[string]float64{"fp": 3}},
	}
	want, err := NewEngine(2).RunAll(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	warm := NewEngine(2)
	got, err := warm.RunAllWarm(context.Background(), specs, 4_000, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, _ := json.Marshal(want)
	gotJSON, _ := json.Marshal(got)
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Errorf("divergent warm batch differs from RunAll")
	}
	if groups, saved := warm.WarmSharing(); groups != 0 || saved != 0 {
		t.Errorf("divergent units reported sharing (groups=%d saved=%d), want none", groups, saved)
	}
}

// TestRunAllWarmBudgetInsideCapture: a follower whose budget lies between
// warmup and the leader's actual capture point (the capture lands on a
// decode-cycle boundary, a few commits past warmup) cannot resume from it
// and must run cold, matching plain RunAll.
func TestRunAllWarmBudgetInsideCapture(t *testing.T) {
	specs := []RunSpec{
		{Benchmark: "gcc", Machine: "base", Instructions: 2_000},
		{Benchmark: "gcc", Machine: "base", Instructions: 501},
		{Benchmark: "gcc", Machine: "base", Instructions: 502},
	}
	want, err := NewEngine(1).RunAll(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := NewEngine(1).RunAllWarm(context.Background(), specs, 500, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, _ := json.Marshal(want)
	if gotJSON, _ := json.Marshal(got); !bytes.Equal(gotJSON, wantJSON) {
		t.Errorf("warm batch differs from RunAll")
	}
}

// TestSnapshotSpecRoundTrip drives the file-based path: capture a warm-up
// snapshot via ExecOpts, then seed a RunSpec.Snapshot run from it and check
// the stats match a straight cold run — and that the snapshot joins the
// spec's cache key by content.
func TestSnapshotSpecRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "warm.gsnp")
	spec := RunSpec{Benchmark: "perl", Machine: "gals", Instructions: 15_000}

	straight, err := Execute(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	capStats, err := ExecuteOpts(spec, ExecOpts{Warmup: 5_000, SnapshotOut: path})
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, _ := json.Marshal(straight)
	if got, _ := json.Marshal(capStats); !bytes.Equal(got, wantJSON) {
		t.Errorf("capturing run perturbed stats")
	}

	seeded := spec
	seeded.Snapshot = &SnapshotRef{Path: path}
	if err := seeded.Validate(); err != nil {
		t.Fatalf("snapshot-seeded spec invalid: %v", err)
	}
	if seeded.Key() == spec.Key() {
		t.Error("snapshot-seeded spec shares the cold spec's cache key; the snapshot content must join it")
	}
	resumed, err := Execute(seeded, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := json.Marshal(resumed); !bytes.Equal(got, wantJSON) {
		t.Errorf("snapshot-seeded run differs from straight run")
	}

	// A snapshot captured under one configuration must not restore another.
	foreign := RunSpec{Benchmark: "gcc", Machine: "gals", Instructions: 15_000,
		Snapshot: &SnapshotRef{Path: path}}
	if err := foreign.Validate(); err == nil {
		t.Error("spec with a foreign-configuration snapshot validated")
	}

	// Corruption fails typed, never a partial restore.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xFF
	bad := filepath.Join(dir, "bad.gsnp")
	if err := os.WriteFile(bad, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	seeded.Snapshot = &SnapshotRef{Path: bad}
	var corrupt *snapshot.CorruptError
	if err := seeded.Validate(); !errors.As(err, &corrupt) {
		t.Errorf("corrupted snapshot: got %v, want *snapshot.CorruptError", err)
	}
}

// TestTraceLengthError is the satellite regression: a same-configuration
// replay must not silently wrap a shorter trace, while an explicitly
// divergent replay keeps the wrap.
func TestTraceLengthError(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "short.trace")
	rec := RunSpec{Benchmark: "gcc", Machine: "gals", Instructions: 3_000}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ExecuteOpts(rec, ExecOpts{TraceOut: f}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// Same configuration, over-length: typed error.
	over := RunSpec{Trace: &TraceRef{Path: path}, Machine: "gals", Instructions: 5_000}
	var tle *TraceLengthError
	if err := over.Validate(); !errors.As(err, &tle) {
		t.Fatalf("same-config over-length replay: got %v, want *TraceLengthError", err)
	} else if tle.Requested != 5_000 || tle.Recorded != 3_000 {
		t.Errorf("TraceLengthError = %+v, want Requested 5000, Recorded 3000", tle)
	}

	// Zero budget defaults to the recorded length: valid, no wrap.
	def := RunSpec{Trace: &TraceRef{Path: path}, Machine: "gals"}
	if err := def.Validate(); err != nil {
		t.Errorf("defaulted replay budget: %v", err)
	}
	if got := def.Canonical().Instructions; got != 3_000 {
		t.Errorf("canonical replay budget = %d, want the recorded 3000", got)
	}

	// Within the recorded length: fine.
	under := RunSpec{Trace: &TraceRef{Path: path}, Machine: "gals", Instructions: 2_000}
	if err := under.Validate(); err != nil {
		t.Errorf("under-length replay: %v", err)
	}

	// Explicitly divergent configuration (slowed domain): the wrap is the
	// documented what-if behaviour and must keep working end to end.
	divergent := RunSpec{Trace: &TraceRef{Path: path}, Machine: "gals", Instructions: 5_000,
		Slowdowns: map[string]float64{"fp": 2}}
	if err := divergent.Validate(); err != nil {
		t.Fatalf("divergent over-length replay rejected: %v", err)
	}
	if st, err := Execute(divergent, nil); err != nil {
		t.Errorf("divergent over-length replay failed: %v", err)
	} else if st.Committed != 5_000 {
		t.Errorf("divergent replay committed %d, want 5000", st.Committed)
	}
}

// TestRestoresSnapshotWithRASFields restores a version-1 snapshot written
// before the predictor lost its return address stack: the predictor state
// carries "ras" and "ras_top" and every in-flight record an "L2Hit" flag.
// Snapshot bodies decode without rejecting unknown fields, so the keys are
// ignored, the format version stays 1, and the resumed run must commit the
// same stream and end with the same Stats as a straight run.
func TestRestoresSnapshotWithRASFields(t *testing.T) {
	spec := RunSpec{Benchmark: "gcc", Machine: "gals", Instructions: 15_000}
	type commit struct {
		Seq  isa.Seq
		PC   uint64
		Time int64
	}
	var straightCommits []commit
	straight, err := ExecuteOpts(spec, ExecOpts{OnCommit: func(in *isa.Instr) {
		straightCommits = append(straightCommits, commit{in.Seq, in.PC, int64(in.CommitTime)})
	}})
	if err != nil {
		t.Fatal(err)
	}
	var snap *snapshot.Snapshot
	if _, err := ExecuteOpts(spec, ExecOpts{Warmup: 5_000, OnSnapshot: func(s *snapshot.Snapshot) { snap = s }}); err != nil {
		t.Fatal(err)
	}

	// Write the fields the old predictor and records carried into the state.
	var state map[string]json.RawMessage
	if err := json.Unmarshal(snap.State, &state); err != nil {
		t.Fatal(err)
	}
	// RawMessage values keep every other number's exact digits.
	var pred map[string]json.RawMessage
	if err := json.Unmarshal(state["pred"], &pred); err != nil {
		t.Fatal(err)
	}
	pred["ras"] = json.RawMessage(`[16384,16640,0,0,0,0,0,0]`)
	pred["ras_top"] = json.RawMessage(`2`)
	var records []map[string]json.RawMessage
	if err := json.Unmarshal(state["records"], &records); err != nil {
		t.Fatal(err)
	}
	if len(records) == 0 {
		t.Fatal("capture holds no in-flight records")
	}
	for _, r := range records {
		r["L2Hit"] = json.RawMessage(`false`)
	}
	state["pred"] = mustMarshal(t, pred)
	state["records"] = mustMarshal(t, records)
	snap.State = mustMarshal(t, state)
	raw, err := snap.EncodeBytes()
	if err != nil {
		t.Fatal(err)
	}
	old, err := snapshot.DecodeBytes(raw)
	if err != nil {
		t.Fatal(err)
	}

	var resumedCommits []commit
	resumed, err := ExecuteOpts(spec, ExecOpts{Resume: old, OnCommit: func(in *isa.Instr) {
		resumedCommits = append(resumedCommits, commit{in.Seq, in.PC, int64(in.CommitTime)})
	}})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := mustMarshal(t, resumed), mustMarshal(t, straight); !bytes.Equal(got, want) {
		t.Errorf("resumed Stats differ from the straight run's:\n%s\n%s", got, want)
	}
	tail := straightCommits[old.Committed:]
	if got, want := mustMarshal(t, resumedCommits), mustMarshal(t, tail); !bytes.Equal(got, want) {
		t.Errorf("resumed run committed %d instructions that differ from the straight run's last %d", len(resumedCommits), len(tail))
	}
}

func mustMarshal(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestCanonicalSpecReadsNoFile: a resolved replay-and-restore spec carries
// both digests and its budget, so keying or canonicalizing it again needs
// neither file.
func TestCanonicalSpecReadsNoFile(t *testing.T) {
	dir := t.TempDir()
	tracePath, snapPath := filepath.Join(dir, "gcc.trace"), filepath.Join(dir, "warm.gsnp")
	f, err := os.Create(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ExecuteOpts(RunSpec{Benchmark: "gcc", Machine: "gals", Instructions: 4_000}, ExecOpts{TraceOut: f}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	spec := RunSpec{Trace: &TraceRef{Path: tracePath}, Machine: "gals"}
	if _, err := ExecuteOpts(spec, ExecOpts{Warmup: 1_000, SnapshotOut: snapPath}); err != nil {
		t.Fatal(err)
	}
	spec.Snapshot = &SnapshotRef{Path: snapPath}
	u, err := spec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	c := u.Spec()
	key, canon := c.Key(), c.Canonical()
	if !reflect.DeepEqual(canon, c) || key != spec.Key() {
		t.Fatalf("resolved spec is not canonical:\n got %+v\nwant %+v", canon, c)
	}
	for _, p := range []string{tracePath, snapPath} {
		if err := os.Remove(p); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.Key(); got != key {
		t.Errorf("Key after deleting the inputs = %s, want %s", got, key)
	}
	if got := c.Canonical(); !reflect.DeepEqual(got, canon) {
		t.Errorf("Canonical after deleting the inputs:\n got %+v\nwant %+v", got, canon)
	}
}
