package pipeline

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"galsim/internal/workload"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the golden Stats snapshots")

// goldenCases are the runs whose complete Stats are pinned byte-for-byte:
// both machine variants over a branchy integer code (gcc), an FP streamer
// (swim) and a mixed workload (perl), plus one dynamic-DVFS run whose
// controller decisions depend on every occupancy counter in the machine,
// and one GALS run with every clock at phase 0, whose domains' edges
// coincide and so pin the firing order of simultaneous edges.
// All use the default seeds (WorkloadSeed 42, PhaseSeed 1) and 20k commits.
func goldenCases() []struct {
	name       string
	topo       Topology
	bench      string
	dvfs       bool
	zeroPhases bool
} {
	return []struct {
		name       string
		topo       Topology
		bench      string
		dvfs       bool
		zeroPhases bool
	}{
		{"base_gcc", BaseTopology(), "gcc", false, false},
		{"base_swim", BaseTopology(), "swim", false, false},
		{"base_perl", BaseTopology(), "perl", false, false},
		{"gals_gcc", GALSTopology(), "gcc", false, false},
		{"gals_swim", GALSTopology(), "swim", false, false},
		{"gals_perl", GALSTopology(), "perl", false, false},
		{"gals_dyndvfs_perl", GALSTopology(), "perl", true, false},
		{"gals_zerophase_gcc", GALSTopology(), "gcc", false, true},
	}
}

// TestGoldenStats asserts that runs at the default seeds reproduce the
// committed Stats snapshots exactly. This is the determinism contract the
// campaign cache keys and trace replay rely on: any hot-path change that
// perturbs even one counter or one float bit fails here. Regenerate with
//
//	go test ./internal/pipeline -run TestGoldenStats -update-golden
//
// only when a change is *supposed* to alter simulation results.
func TestGoldenStats(t *testing.T) {
	for _, tc := range goldenCases() {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig(tc.topo)
			if tc.dvfs {
				cfg.DynamicDVFS = true
			}
			cfg.ZeroPhases = tc.zeroPhases
			prof, err := workload.ByName(tc.bench)
			if err != nil {
				t.Fatal(err)
			}
			st := NewCore(cfg, prof).Run(20_000)
			got, err := json.MarshalIndent(st, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, '\n')
			path := filepath.Join("testdata", "golden_"+tc.name+".json")
			if *updateGolden {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden snapshot (run with -update-golden to create): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("Stats diverged from golden snapshot %s\n%s", path, diffHint(want, got))
			}
		})
	}
}

// diffHint locates the first differing line so a failure names the counter
// that moved instead of dumping two 200-line JSON blobs.
func diffHint(want, got []byte) string {
	wl := bytes.Split(want, []byte("\n"))
	gl := bytes.Split(got, []byte("\n"))
	n := len(wl)
	if len(gl) < n {
		n = len(gl)
	}
	for i := 0; i < n; i++ {
		if !bytes.Equal(wl[i], gl[i]) {
			return fmt.Sprintf("first divergence at line %d:\n  golden: %s\n  got:    %s",
				i+1, wl[i], gl[i])
		}
	}
	return fmt.Sprintf("line counts differ: golden %d, got %d", len(wl), len(gl))
}
