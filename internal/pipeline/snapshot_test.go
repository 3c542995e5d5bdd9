package pipeline

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"galsim/internal/simtime"
	"galsim/internal/workload"
)

// snapCases are the configurations the snapshot differential gate covers:
// both machine variants over the three golden benchmarks, plus dynamic DVFS
// (whose controller state is the trickiest to carry across a restore) and an
// interval-sampled run (whose Samples must stay byte-identical).
func snapCases() []struct {
	name   string
	topo   Topology
	bench  string
	dvfs   bool
	sample uint64
} {
	return []struct {
		name   string
		topo   Topology
		bench  string
		dvfs   bool
		sample uint64
	}{
		{"base_gcc", BaseTopology(), "gcc", false, 0},
		{"base_swim", BaseTopology(), "swim", false, 0},
		{"base_perl", BaseTopology(), "perl", false, 0},
		{"gals_gcc", GALSTopology(), "gcc", false, 0},
		{"gals_swim", GALSTopology(), "swim", false, 0},
		{"gals_perl", GALSTopology(), "perl", false, 0},
		{"gals_dyndvfs_perl", GALSTopology(), "perl", true, 0},
		{"gals_sampled_gcc", GALSTopology(), "gcc", false, 2000},
		{"gals_dyndvfs_sampled_swim", GALSTopology(), "swim", true, 2000},
	}
}

func snapConfig(t *testing.T, topo Topology, dvfs bool, sample uint64) Config {
	t.Helper()
	cfg := DefaultConfig(topo)
	if dvfs {
		cfg.DynamicDVFS = DefaultDynamicDVFS()
	}
	cfg.SampleInterval = sample
	return cfg
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestSnapshotRestoreByteIdentical is the PR's non-negotiable gate: running
// to W, capturing, restoring into a fresh core, and running on to N must
// produce Stats byte-identical to the uninterrupted run — including interval
// samples and dynamic-DVFS trajectories. It also asserts that taking the
// snapshot did not perturb the capturing run itself.
func TestSnapshotRestoreByteIdentical(t *testing.T) {
	const warm, total = 7_000, 20_000
	for _, tc := range snapCases() {
		t.Run(tc.name, func(t *testing.T) {
			prof, err := workload.ByName(tc.bench)
			if err != nil {
				t.Fatal(err)
			}

			// Straight-line run: the reference.
			straight := NewCore(snapConfig(t, tc.topo, tc.dvfs, tc.sample), prof).Run(total)
			wantJSON := mustJSON(t, straight)

			// Capturing run: identical config, snapshot at warm.
			capCore := NewCore(snapConfig(t, tc.topo, tc.dvfs, tc.sample), prof)
			var raw []byte
			var atCommits uint64
			if err := capCore.SnapshotAt([]uint64{warm}, func(commits uint64, st *CoreState) {
				atCommits = commits
				raw = mustJSON(t, st)
			}); err != nil {
				t.Fatal(err)
			}
			capStats := capCore.Run(total)
			if raw == nil {
				t.Fatal("snapshot callback never fired")
			}
			if atCommits < warm {
				t.Fatalf("snapshot fired at %d commits, want >= %d", atCommits, warm)
			}
			if got := mustJSON(t, capStats); !bytes.Equal(got, wantJSON) {
				t.Errorf("taking a snapshot perturbed the run:\n%s", diffHint(wantJSON, got))
			}

			// Restored run: decode the state, rebuild, run to the same total.
			var st CoreState
			if err := json.Unmarshal(raw, &st); err != nil {
				t.Fatal(err)
			}
			restored, err := RestoreCore(snapConfig(t, tc.topo, tc.dvfs, tc.sample), prof.Name,
				workload.NewGenerator(prof, snapConfig(t, tc.topo, tc.dvfs, tc.sample).WorkloadSeed), &st)
			if err != nil {
				t.Fatal(err)
			}
			resStats := restored.Run(total)
			if got := mustJSON(t, resStats); !bytes.Equal(got, wantJSON) {
				t.Errorf("restore-then-run diverged from straight-line run:\n%s", diffHint(wantJSON, got))
			}
		})
	}
}

// TestSnapshotPeriodicCheckpoints exercises the cluster-checkpoint shape:
// several triggers in one run, each independently restorable, and later
// checkpoints strictly ahead of earlier ones.
func TestSnapshotPeriodicCheckpoints(t *testing.T) {
	const total = 20_000
	prof, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	straight := NewCore(snapConfig(t, GALSTopology(), false, 0), prof).Run(total)
	wantJSON := mustJSON(t, straight)

	core := NewCore(snapConfig(t, GALSTopology(), false, 0), prof)
	type ckpt struct {
		commits uint64
		raw     []byte
	}
	var ckpts []ckpt
	if err := core.SnapshotAt([]uint64{4_000, 9_000, 14_000}, func(commits uint64, st *CoreState) {
		ckpts = append(ckpts, ckpt{commits, mustJSON(t, st)})
	}); err != nil {
		t.Fatal(err)
	}
	core.Run(total)
	if len(ckpts) != 3 {
		t.Fatalf("got %d checkpoints, want 3", len(ckpts))
	}
	for i := 1; i < len(ckpts); i++ {
		if ckpts[i].commits <= ckpts[i-1].commits {
			t.Fatalf("checkpoint %d at %d commits not ahead of previous (%d)",
				i, ckpts[i].commits, ckpts[i-1].commits)
		}
	}
	// Resume from the middle checkpoint and confirm the final Stats match.
	var st CoreState
	if err := json.Unmarshal(ckpts[1].raw, &st); err != nil {
		t.Fatal(err)
	}
	cfg := snapConfig(t, GALSTopology(), false, 0)
	restored, err := RestoreCore(cfg, prof.Name, workload.NewGenerator(prof, cfg.WorkloadSeed), &st)
	if err != nil {
		t.Fatal(err)
	}
	if got := mustJSON(t, restored.Run(total)); !bytes.Equal(got, wantJSON) {
		t.Errorf("resume from mid-run checkpoint diverged:\n%s", diffHint(wantJSON, got))
	}
}

// TestSnapshotRejectsNonSnapshottableSource pins the typed failure for
// sources outside the Snapshotter contract.
func TestSnapshotRejectsNonSnapshottableSource(t *testing.T) {
	prof, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(BaseTopology())
	src := struct{ workload.InstrSource }{workload.NewGenerator(prof, cfg.WorkloadSeed)}
	core := NewCoreWithSource(cfg, "gcc", src)
	if err := core.SnapshotAt([]uint64{100}, func(uint64, *CoreState) {}); err == nil {
		t.Fatal("SnapshotAt accepted a non-snapshottable source")
	}
}

// TestRestoreRejectsBadSchedule pins RestoreCore's checks on the captured
// clock-edge calendar (one edge time and one positive period per clock
// domain, and no edge before time zero), on the DVFS probe domain, which
// the controller indexes per-domain state with, and on the squash's
// per-domain times.
func TestRestoreRejectsBadSchedule(t *testing.T) {
	prof, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	cfg := snapConfig(t, GALSTopology(), false, 0)
	core := NewCore(cfg, prof)
	var raw []byte
	if err := core.SnapshotAt([]uint64{1_000}, func(_ uint64, st *CoreState) {
		raw = mustJSON(t, st)
	}); err != nil {
		t.Fatal(err)
	}
	core.Run(2_000)

	for _, tc := range []struct {
		name    string
		mutate  func(*CoreState)
		wantErr string
	}{
		{"length_mismatch", func(st *CoreState) { st.TickWhen = st.TickWhen[1:] }, "clock domains"},
		{"zero_period", func(st *CoreState) { st.TickPeriod[2] = 0 }, "not positive"},
		{"negative_time", func(st *CoreState) { st.TickWhen[2] = -1 }, "negative"},
		{"probe_domain", func(st *CoreState) { st.DVFS.ProbeActive, st.DVFS.ProbeDomain = true, 7 }, "probe domain"},
		{"negative_probe_domain", func(st *CoreState) { st.DVFS.ProbeActive, st.DVFS.ProbeDomain = true, -1 }, "probe domain"},
		{"squash_since_length", func(st *CoreState) { st.Squash.Since = []simtime.Time{1, 2} }, "per-domain times"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var st CoreState
			if err := json.Unmarshal(raw, &st); err != nil {
				t.Fatal(err)
			}
			tc.mutate(&st)
			_, err := RestoreCore(cfg, prof.Name, workload.NewGenerator(prof, cfg.WorkloadSeed), &st)
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("RestoreCore error = %v, want one containing %q", err, tc.wantErr)
			}
		})
	}
}
