package pipeline

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"galsim/internal/snapshot"
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
		cfg.DynamicDVFS = true
	}
	cfg.SampleInterval = sample
	return cfg
}

// stateOf returns the state sections a capture's appendState writes.
func stateOf(appendState func(*snapshot.Encoder)) []byte {
	e := snapshot.NewEncoder(nil)
	appendState(e)
	return e.Bytes()
}

// recapture returns the state sections of a core that is not running.
func recapture(c *Core) []byte {
	e := snapshot.NewEncoder(nil)
	c.appendState(e, -1, 0)
	return e.Bytes()
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
			if err := capCore.SnapshotAt([]uint64{warm}, func(commits uint64, appendState func(*snapshot.Encoder)) {
				atCommits = commits
				raw = stateOf(appendState)
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

			// Restored run: decode the state into a fresh core, which
			// recaptures the same bytes, and run it to the same total.
			restored, err := RestoreCore(snapConfig(t, tc.topo, tc.dvfs, tc.sample), prof.Name,
				workload.NewGenerator(prof, snapConfig(t, tc.topo, tc.dvfs, tc.sample).WorkloadSeed), raw)
			if err != nil {
				t.Fatal(err)
			}
			if got := recapture(restored); !bytes.Equal(got, raw) {
				t.Error("a restored core recaptures other bytes than it was restored from")
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
	if err := core.SnapshotAt([]uint64{4_000, 9_000, 14_000}, func(commits uint64, appendState func(*snapshot.Encoder)) {
		ckpts = append(ckpts, ckpt{commits, stateOf(appendState)})
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
	cfg := snapConfig(t, GALSTopology(), false, 0)
	restored, err := RestoreCore(cfg, prof.Name, workload.NewGenerator(prof, cfg.WorkloadSeed), ckpts[1].raw)
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
	if err := core.SnapshotAt([]uint64{100}, func(uint64, func(*snapshot.Encoder)) {}); err == nil {
		t.Fatal("SnapshotAt accepted a non-snapshottable source")
	}
}

// TestRestoreRejectsBadSchedule pins RestoreCore's checks on the captured
// clock-edge calendar (one edge time and one positive period per clock
// domain, and no edge before time zero), on the DVFS probe domain, which
// the controller indexes per-domain state with, and on the squash's
// per-domain times. Each case restores a good capture, breaks the restored
// core, and captures it again.
func TestRestoreRejectsBadSchedule(t *testing.T) {
	prof, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	cfg := snapConfig(t, GALSTopology(), false, 0)
	core := NewCore(cfg, prof)
	var raw []byte
	if err := core.SnapshotAt([]uint64{1_000}, func(_ uint64, appendState func(*snapshot.Encoder)) {
		raw = stateOf(appendState)
	}); err != nil {
		t.Fatal(err)
	}
	core.Run(2_000)
	restore := func(state []byte) (*Core, error) {
		return RestoreCore(cfg, prof.Name, workload.NewGenerator(prof, cfg.WorkloadSeed), state)
	}

	for _, tc := range []struct {
		name    string
		mutate  func(*Core) []byte
		wantErr string
	}{
		{"length_mismatch", func(c *Core) []byte { c.tickAt = c.tickAt[1:]; return recapture(c) }, "clock domains"},
		{"zero_period", func(c *Core) []byte { c.tickPeriod[2] = 0; return recapture(c) }, "not positive"},
		{"negative_time", func(c *Core) []byte { c.tickAt[2] = -1; return recapture(c) }, "negative"},
		{"probe_domain", func(c *Core) []byte { c.dvfs.probeActive, c.dvfs.probeDomain = true, 7; return recapture(c) }, "probe domain"},
		{"negative_probe_domain", func(c *Core) []byte { c.dvfs.probeActive, c.dvfs.probeDomain = true, -1; return recapture(c) }, "probe domain"},
		{"squash_since_length", func(c *Core) []byte {
			// The squash times end the state: one time for every domain.
			// Claim two instead.
			st := recapture(c)
			e := snapshot.NewEncoder(nil)
			e.Uvarint(1)
			e.Time(c.sq.time[0])
			tail := e.Bytes()
			if !bytes.HasSuffix(st, tail) {
				t.Fatalf("capture does not end with the one squash time %x", tail)
			}
			e = snapshot.NewEncoder(st[:len(st)-len(tail)])
			e.Uvarint(2)
			e.Time(1)
			e.Time(2)
			return e.Bytes()
		}, "per-domain times"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := restore(raw)
			if err != nil {
				t.Fatal(err)
			}
			_, err = restore(tc.mutate(c))
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("RestoreCore error = %v, want one containing %q", err, tc.wantErr)
			}
		})
	}
}
