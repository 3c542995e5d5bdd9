package power

import (
	"math"
	"testing"
)

func TestBlockNamesDistinct(t *testing.T) {
	seen := map[string]bool{}
	for _, b := range Blocks() {
		s := b.String()
		if s == "" || seen[s] {
			t.Errorf("block %d name %q empty or duplicate", b, s)
		}
		seen[s] = true
	}
	if len(Blocks()) != NumBlocks {
		t.Error("Blocks() length mismatch")
	}
}

func TestClockClassification(t *testing.T) {
	clocks := 0
	for _, b := range Blocks() {
		if b.IsClock() {
			clocks++
		}
	}
	if clocks != 6 { // global + 5 locals
		t.Errorf("%d clock blocks, want 6", clocks)
	}
}

func TestDefaultParamsValid(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestActiveCycleCharging(t *testing.T) {
	m := NewMeter(DefaultParams())
	m.Access(BlockICache, 2)
	m.EndCycle([]Block{BlockICache}, 1.0)
	want := 2 * DefaultParams().Blocks[BlockICache].PerAccess
	if got := m.energy[BlockICache]; got != want {
		t.Errorf("energy = %v, want %v", got, want)
	}
}

func TestIdleCycleChargesTenPercent(t *testing.T) {
	p := DefaultParams()
	m := NewMeter(p)
	m.EndCycle([]Block{BlockALUs}, 1.0)
	bp := p.Blocks[BlockALUs]
	want := 0.10 * bp.FullAccesses * bp.PerAccess
	if got := m.energy[BlockALUs]; math.Abs(got-want) > 1e-9 {
		t.Errorf("idle energy = %v, want %v", got, want)
	}
	if m.idle[BlockALUs] != 1 {
		t.Error("idle cycle not counted")
	}
}

func TestClockGridNeverIdle(t *testing.T) {
	p := DefaultParams()
	m := NewMeter(p)
	m.EndCycle([]Block{BlockFetchClock}, 1.0)
	if got := m.energy[BlockFetchClock]; got != p.Blocks[BlockFetchClock].PerAccess {
		t.Errorf("grid idle cycle charged %v, want full %v", got, p.Blocks[BlockFetchClock].PerAccess)
	}
}

func TestEndClockCycle(t *testing.T) {
	p := DefaultParams()
	m := NewMeter(p)
	m.EndClockCycle(BlockGlobalClock, 1.0)
	m.EndClockCycle(BlockGlobalClock, 0.25)
	want := p.Blocks[BlockGlobalClock].PerAccess * 1.25
	if got := m.energy[BlockGlobalClock]; math.Abs(got-want) > 1e-9 {
		t.Errorf("grid energy = %v, want %v", got, want)
	}
	if m.Cycles(BlockGlobalClock) != 2 {
		t.Error("cycles not counted")
	}
}

func TestEndClockCycleRejectsNonClock(t *testing.T) {
	m := NewMeter(DefaultParams())
	defer func() {
		if recover() == nil {
			t.Error("EndClockCycle(ALUs) did not panic")
		}
	}()
	m.EndClockCycle(BlockALUs, 1.0)
}

func TestVoltageScaling(t *testing.T) {
	m := NewMeter(DefaultParams())
	m.Access(BlockDCache, 1)
	m.EndCycle([]Block{BlockDCache}, 0.5) // e.g. V = Vnom/sqrt(2)
	want := 0.5 * DefaultParams().Blocks[BlockDCache].PerAccess
	if got := m.energy[BlockDCache]; math.Abs(got-want) > 1e-9 {
		t.Errorf("scaled energy = %v, want %v", got, want)
	}
}

func TestPendingResetsBetweenCycles(t *testing.T) {
	m := NewMeter(DefaultParams())
	m.Access(BlockRename, 4)
	m.EndCycle([]Block{BlockRename}, 1.0)
	first := m.energy[BlockRename]
	m.EndCycle([]Block{BlockRename}, 1.0) // idle cycle
	second := m.energy[BlockRename] - first
	idle := 0.10 * DefaultParams().Blocks[BlockRename].FullAccesses * DefaultParams().Blocks[BlockRename].PerAccess
	if math.Abs(second-idle) > 1e-9 {
		t.Errorf("second cycle charged %v, want idle %v", second, idle)
	}
}

func TestTotalsAndBreakdown(t *testing.T) {
	m := NewMeter(DefaultParams())
	m.Access(BlockICache, 1)
	m.EndCycle([]Block{BlockICache}, 1.0)
	m.EndClockCycle(BlockGlobalClock, 1.0)
	m.AddEnergy(BlockFIFOs, 123)
	var sum float64
	for _, e := range m.Breakdown() {
		sum += e
	}
	if math.Abs(sum-m.TotalEnergy()) > 1e-9 {
		t.Error("breakdown does not sum to total")
	}
	if got := m.Breakdown()[BlockFIFOs]; got != 123 {
		t.Errorf("breakdown FIFO energy = %v, want 123", got)
	}
}

func TestGlobalGridShareOfClockPower(t *testing.T) {
	// Structural check on the calibration: the global grid should be a
	// substantial minority of total clock power (the 21264-style hierarchy),
	// between 20% and 45%.
	p := DefaultParams()
	global := p.Blocks[BlockGlobalClock].PerAccess
	total := global
	for _, b := range []Block{BlockFetchClock, BlockDecodeClock, BlockIntClock, BlockFPClock, BlockMemClock} {
		total += p.Blocks[b].PerAccess
	}
	share := global / total
	if share < 0.20 || share > 0.45 {
		t.Errorf("global grid share of clock power = %.2f, want 0.20-0.45", share)
	}
}

func TestNegativeGuards(t *testing.T) {
	m := NewMeter(DefaultParams())
	for name, fn := range map[string]func(){
		"Access":    func() { m.Access(BlockALUs, -1) },
		"AddEnergy": func() { m.AddEnergy(BlockFIFOs, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}
