package pipeline

import (
	"reflect"
	"testing"

	"galsim/internal/isa"
	"galsim/internal/workload"
)

// TestAllocationBudget is the hot-path allocation regression gate: in steady
// state the simulator must allocate at most 0.05 heap objects per simulated
// instruction. Measured as the difference between a short and a long run
// (same configuration), which cancels construction and warm-up costs —
// clock/link/arena setup, static-program materialization of the hot code —
// and leaves only the per-instruction residue the arena and ring buffers
// exist to eliminate. The budget is ~150x above the currently measured rate
// (≤ 0.0003), so it trips on a reintroduced per-instruction or per-cycle
// allocation, not on noise.
func TestAllocationBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("long simulation runs")
	}
	const (
		short  = 20_000
		long   = 120_000
		window = long - short
		budget = 0.05 // allocs per simulated instruction
	)
	for _, bench := range []string{"gcc", "swim"} {
		bench := bench
		t.Run(bench, func(t *testing.T) {
			prof, err := workload.ByName(bench)
			if err != nil {
				t.Fatal(err)
			}
			run := func(n uint64) float64 {
				return testing.AllocsPerRun(1, func() {
					cfg := DefaultConfig(GALSTopology())
					NewCore(cfg, prof).Run(n)
				})
			}
			shortAllocs := run(short)
			longAllocs := run(long)
			perInstr := (longAllocs - shortAllocs) / float64(window)
			t.Logf("%s: %.0f allocs @%d, %.0f @%d -> %.5f allocs/instr",
				bench, shortAllocs, short, longAllocs, long, perInstr)
			if perInstr > budget {
				t.Errorf("steady-state allocations %.5f per instruction exceed budget %.2f",
					perInstr, budget)
			}
		})
	}
}

// TestArenaLifecycle checks the instruction arena's accounting over a run
// with heavy speculation: every record handed out comes back (modulo the
// bounded number still in flight when the run stops), the free list is
// actually recycling, and the arena footprint stays near the machine's
// in-flight capacity instead of scaling with run length.
func TestArenaLifecycle(t *testing.T) {
	prof, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	core := NewCore(DefaultConfig(GALSTopology()), prof)
	st := core.Run(30_000)
	ps := core.PoolStats()
	if ps.Gets == 0 {
		t.Fatal("arena unused: the generator did not pool")
	}
	if ps.Gets < st.Fetched {
		t.Errorf("arena gets %d < fetched %d", ps.Gets, st.Fetched)
	}
	if ps.Reuses == 0 {
		t.Error("free list never recycled a record")
	}
	// Everything not still queued in a link/IQ/ROB at stop time was released.
	if live := ps.Gets - ps.Releases; live > 2_000 {
		t.Errorf("%d records live at end of run; leak in a release path", live)
	}
	// Chunks bound the arena's footprint: must track in-flight capacity
	// (hundreds of records), not the ~45k records fetched.
	if ps.Chunks > 4 {
		t.Errorf("arena grew to %d chunks; recycling is not keeping up", ps.Chunks)
	}
}

// TestRetainInstrsKeepsRecords: with RetainInstrs, an OnCommit hook may hold
// *Instr past the call — records must stay intact (no recycling) and the
// results must be identical to the pooled run.
func TestRetainInstrsKeepsRecords(t *testing.T) {
	prof, err := workload.ByName("li")
	if err != nil {
		t.Fatal(err)
	}
	pooled := NewCore(DefaultConfig(GALSTopology()), prof).Run(8_000)

	core := NewCore(DefaultConfig(GALSTopology()), prof)
	core.RetainInstrs()
	var kept []*isa.Instr
	core.OnCommit(func(in *isa.Instr) { kept = append(kept, in) })
	st := core.Run(8_000)

	if !reflect.DeepEqual(st, pooled) {
		t.Error("RetainInstrs changed simulation results")
	}
	if got := core.PoolStats(); got.Gets != 0 {
		t.Errorf("arena still active after RetainInstrs: %+v", got)
	}
	if uint64(len(kept)) != st.Committed {
		t.Fatalf("hook saw %d commits, stats %d", len(kept), st.Committed)
	}
	// Retained records must be distinct objects with intact program order
	// and generation 0 (never recycled) — a reused record would show a
	// repeated pointer, a reset Seq, or a bumped generation.
	seen := make(map[*isa.Instr]bool, len(kept))
	var lastSeq isa.Seq
	for i, in := range kept {
		if seen[in] {
			t.Fatalf("commit %d: record %p reused despite RetainInstrs", i, in)
		}
		seen[in] = true
		if in.Generation() != 0 {
			t.Fatalf("commit %d: retained record has generation %d", i, in.Generation())
		}
		if i > 0 && in.Seq <= lastSeq {
			t.Fatalf("commit %d: retained records corrupted (seq %d after %d)", i, in.Seq, lastSeq)
		}
		lastSeq = in.Seq
	}
}

// TestPooledMatchesRetained pins the arena's core safety property across
// both machine kinds and a dynamic-DVFS run: recycling records must produce
// bit-identical Stats to never recycling them.
func TestPooledMatchesRetained(t *testing.T) {
	prof, err := workload.ByName("perl")
	if err != nil {
		t.Fatal(err)
	}
	for _, topo := range []Topology{BaseTopology(), GALSTopology()} {
		cfg := DefaultConfig(topo)
		if !topo.Synchronous() {
			cfg.DynamicDVFS = DefaultDynamicDVFS()
		}
		pooled := NewCore(cfg, prof).Run(10_000)
		retained := NewCore(cfg, prof)
		retained.RetainInstrs()
		if got := retained.Run(10_000); !reflect.DeepEqual(got, pooled) {
			t.Errorf("%v: pooled and retained runs diverge", topo.kind())
		}
	}
}
