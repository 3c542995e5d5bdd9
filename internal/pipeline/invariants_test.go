package pipeline

import (
	"testing"

	"galsim/internal/isa"
	"galsim/internal/power"
	"galsim/internal/simtime"
	"galsim/internal/workload"
)

// TestCommitStreamInvariants checks, for both machines, the fundamental
// correctness properties of the committed instruction stream:
//
//  1. commits are in program order (strictly increasing sequence numbers);
//  2. no wrong-path instruction ever commits;
//  3. lifecycle timestamps are monotone: fetch <= decode <= dispatch <=
//     issue <= complete <= commit;
//  4. every committed instruction with sources saw them renamed (no dangling
//     physical indices);
//  5. FIFO residency never exceeds total slip.
func TestCommitStreamInvariants(t *testing.T) {
	for _, topo := range []Topology{BaseTopology(), GALSTopology()} {
		t.Run(topo.kind().String(), func(t *testing.T) {
			cfg := DefaultConfig(topo)
			prof, err := workload.ByName("gcc")
			if err != nil {
				t.Fatal(err)
			}
			core := NewCore(cfg, prof)
			var lastSeq isa.Seq
			n := 0
			core.OnCommit(func(in *isa.Instr) {
				n++
				if in.WrongPath {
					t.Fatalf("wrong-path instruction %d committed", in.Seq)
				}
				if in.Seq <= lastSeq && n > 1 {
					t.Fatalf("out-of-order commit: %d after %d", in.Seq, lastSeq)
				}
				lastSeq = in.Seq
				ts := []simtime.Time{in.FetchTime, in.DecodeTime, in.DispatchTime,
					in.IssueTime, in.CompleteTime, in.CommitTime}
				names := []string{"fetch", "decode", "dispatch", "issue", "complete", "commit"}
				for i := 1; i < len(ts); i++ {
					if ts[i] == simtime.Never {
						t.Fatalf("instr %d committed without a %s timestamp", in.Seq, names[i])
					}
					if ts[i] < ts[i-1] {
						t.Fatalf("instr %d: %s (%v) precedes %s (%v)",
							in.Seq, names[i], ts[i], names[i-1], ts[i-1])
					}
				}
				for _, s := range in.PhysSrc {
					if s < -1 || s >= cfg.PhysInt+cfg.PhysFP {
						t.Fatalf("instr %d: dangling physical source %d", in.Seq, s)
					}
				}
				if in.FIFOTime > in.Slip() {
					t.Fatalf("instr %d: FIFO residency %v exceeds slip %v",
						in.Seq, in.FIFOTime, in.Slip())
				}
			})
			st := core.Run(25_000)
			if uint64(n) != st.Committed {
				t.Errorf("hook saw %d commits, stats %d", n, st.Committed)
			}
		})
	}
}

// TestCommitOrderAcrossConfigs fuzzes several configurations and checks the
// machine completes and preserves commit ordering.
func TestCommitOrderAcrossConfigs(t *testing.T) {
	muts := []func(*Config){
		func(c *Config) { c.FIFOSyncEdges = 1 },
		func(c *Config) { c.FIFOSyncEdges = 3 },
		func(c *Config) { c.FIFOCapacity = 4 },
		func(c *Config) { c.ZeroPhases = true },
		func(c *Config) { c.LinkStyle = LinkStretch },
		func(c *Config) { c.ROBSize = 16 },
		func(c *Config) { c.IntIQSize, c.FPIQSize, c.MemIQSize = 4, 4, 4 },
		func(c *Config) { c.CommitWidth = 1 },
		func(c *Config) { c.FetchWidth = 1 },
		func(c *Config) { c.Slowdowns = [NumDomains]float64{1.3, 1.0, 2.0, 3.0, 1.1} },
	}
	prof, _ := workload.ByName("li")
	for i, mut := range muts {
		cfg := DefaultConfig(GALSTopology())
		mut(&cfg)
		core := NewCore(cfg, prof)
		var last isa.Seq
		first := true
		core.OnCommit(func(in *isa.Instr) {
			if !first && in.Seq <= last {
				t.Fatalf("config %d: commit order violated", i)
			}
			first = false
			last = in.Seq
		})
		st := core.Run(6_000)
		if st.Committed != 6_000 {
			t.Errorf("config %d committed %d", i, st.Committed)
		}
	}
}

// TestStretchLinkMachineSlower quantifies §3.2 at machine level.
func TestStretchLinkMachineSlower(t *testing.T) {
	prof, _ := workload.ByName("compress")
	fifoCfg := DefaultConfig(GALSTopology())
	fifoSt := NewCore(fifoCfg, prof).Run(15_000)
	stretchCfg := DefaultConfig(GALSTopology())
	stretchCfg.LinkStyle = LinkStretch
	stretchSt := NewCore(stretchCfg, prof).Run(15_000)
	if stretchSt.SimTime <= fifoSt.SimTime {
		t.Errorf("stretch-clocked machine (%v) not slower than FIFO machine (%v)",
			stretchSt.SimTime, fifoSt.SimTime)
	}
}

// TestDomainCycleAccounting checks that each domain's counted cycles agree
// with its clock: cycles ≈ simulated time / period (GALS domains tick
// independently; a 2x-slowed domain must count half the cycles).
func TestDomainCycleAccounting(t *testing.T) {
	cfg := DefaultConfig(GALSTopology())
	cfg.Slowdowns[DomFP] = 2.0
	prof, _ := workload.ByName("perl")
	st := NewCore(cfg, prof).Run(10_000)
	simNs := st.SimTime.Nanoseconds()
	for d := DomainID(0); d < NumDomains; d++ {
		expected := simNs / cfg.Slowdowns[d] // nominal period is 1ns
		got := float64(st.Cycles[d])
		if got < expected*0.98 || got > expected*1.02+2 {
			t.Errorf("domain %v: %v cycles, expected ~%.0f", d, got, expected)
		}
	}
}

// TestEnergyAccountingClosed: the per-block breakdown always sums to the
// total, and clock-grid energy scales with the domain's cycle count.
func TestEnergyAccountingClosed(t *testing.T) {
	for _, topo := range []Topology{BaseTopology(), GALSTopology()} {
		cfg := DefaultConfig(topo)
		prof, _ := workload.ByName("compress")
		st := NewCore(cfg, prof).Run(10_000)
		var sum float64
		for _, e := range st.EnergyBreakdown {
			sum += e
		}
		if d := (sum - st.EnergyPJ) / st.EnergyPJ; d > 1e-12 || d < -1e-12 {
			t.Errorf("%v: breakdown sums to %.6g, total %.6g", topo.kind(), sum, st.EnergyPJ)
		}
		// Grid energy per cycle is a constant at nominal voltage.
		perCycle := st.EnergyBreakdown[power.BlockFetchClock] / float64(st.Cycles[DomFetch])
		want := cfg.Power.Blocks[power.BlockFetchClock].PerAccess
		if perCycle < want*0.999 || perCycle > want*1.001 {
			t.Errorf("%v: fetch grid %.3f pJ/cycle, want %.3f", topo.kind(), perCycle, want)
		}
	}
}

// TestOnCommitAfterRunPanics guards hook registration discipline.
func TestOnCommitAfterRunPanics(t *testing.T) {
	prof, _ := workload.ByName("compress")
	core := NewCore(DefaultConfig(BaseTopology()), prof)
	core.Run(100)
	defer func() {
		if recover() == nil {
			t.Error("OnCommit after Run did not panic")
		}
	}()
	core.OnCommit(func(*isa.Instr) {})
}
