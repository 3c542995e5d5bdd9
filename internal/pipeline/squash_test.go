package pipeline

import (
	"bytes"
	"fmt"
	"testing"

	"galsim/internal/snapshot"
	"galsim/internal/workload"
)

// TestHeavilySlowedDomainsComplete runs GALS machines with one domain slowed
// well past the paper's range — any slowdown ≥ 1 validates. A slow domain
// may still be waiting to observe one squash when fetch, already
// redirected, delivers a newer misprediction; the newer squash must
// supersede the older one, and a slowed memory domain must not be mistaken
// for a deadlock.
func TestHeavilySlowedDomainsComplete(t *testing.T) {
	for _, dom := range []DomainID{DomFP, DomMem} {
		for _, slow := range []float64{4, 8, 1000} {
			for _, bench := range []string{"gcc", "li", "swim"} {
				t.Run(fmt.Sprintf("%s/%v=%g", bench, dom, slow), func(t *testing.T) {
					t.Parallel()
					defer func() {
						if r := recover(); r != nil {
							t.Fatal(r)
						}
					}()
					st := run(t, GALSTopology(), bench, 20_000, func(c *Config) { c.Slowdowns[dom] = slow })
					if st.Committed != 20_000 {
						t.Fatalf("committed %d, want 20000", st.Committed)
					}
				})
			}
		}
	}
}

// TestSupersededSquashSnapshotRoundTrip captures a run whose squashes
// supersede each other at every checkpoint, and requires each capture taken
// while domains wait on different squashes to restore into a run identical
// to the straight one.
func TestSupersededSquashSnapshotRoundTrip(t *testing.T) {
	const total = 6_000
	prof, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(GALSTopology())
	cfg.Slowdowns[DomFP] = 8
	want := mustJSON(t, NewCore(cfg, prof).Run(total))

	var held [][]byte
	capCore := NewCore(cfg, prof)
	var targets []uint64
	for n := uint64(100); n < total; n += 100 {
		targets = append(targets, n)
	}
	if err := capCore.SnapshotAt(targets, func(_ uint64, appendState func(*snapshot.Encoder)) {
		if !allEqual(capCore.sq.time[:]) {
			held = append(held, stateOf(appendState))
		}
	}); err != nil {
		t.Fatal(err)
	}
	capCore.Run(total)
	if len(held) == 0 {
		t.Fatal("no checkpoint caught domains waiting on different squashes")
	}
	for i, st := range held {
		restored, err := RestoreCore(cfg, prof.Name, workload.NewGenerator(prof, cfg.WorkloadSeed), st)
		if err != nil {
			t.Fatal(err)
		}
		if got := mustJSON(t, restored.Run(total)); !bytes.Equal(got, want) {
			t.Fatalf("restore of held capture %d diverged:\n%s", i, diffHint(want, got))
		}
	}
}
