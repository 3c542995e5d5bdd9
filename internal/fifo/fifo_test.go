package fifo

import (
	"testing"
	"testing/quick"

	"galsim/internal/clock"
	"galsim/internal/isa"
	"galsim/internal/simtime"
)

const ns = simtime.Nanosecond

func TestSyncLatchNextCycleVisibility(t *testing.T) {
	clk := clock.NewDomain("c", ns, 0, 1.65) // edges at 0, 1ns, 2ns, ...
	l := NewSyncLatch[int]("latch", clk, 4)
	l.Put(0, 1, 42)
	if l.CanGet(0) {
		t.Error("item visible at the edge it was written")
	}
	if !l.CanGet(ns) {
		t.Error("item not visible at the next edge")
	}
	v, wait, ok := l.Get(ns)
	if !ok || v != 42 || wait != ns {
		t.Errorf("Get = %v,%v,%v", v, wait, ok)
	}
}

func TestSyncLatchCapacityImmediatelyVisible(t *testing.T) {
	clk := clock.NewDomain("c", ns, 0, 1.65)
	l := NewSyncLatch[int]("latch", clk, 2)
	l.Put(0, 1, 1)
	l.Put(0, 2, 2)
	if l.CanPut(0) {
		t.Error("latch should be full")
	}
	// Consumer drains at 1ns; space is visible to producer at once.
	if _, _, ok := l.Get(ns); !ok {
		t.Fatal("drain failed")
	}
	if !l.CanPut(ns) {
		t.Error("freed space not immediately visible in sync latch")
	}
}

func TestSyncLatchFIFOOrder(t *testing.T) {
	clk := clock.NewDomain("c", ns, 0, 1.65)
	l := NewSyncLatch[int]("latch", clk, 8)
	for i := 0; i < 5; i++ {
		l.Put(0, isa.Seq(i), i)
	}
	for i := 0; i < 5; i++ {
		v, _, ok := l.Get(ns)
		if !ok || v != i {
			t.Fatalf("Get #%d = %v,%v", i, v, ok)
		}
	}
}

func TestMixedFIFOSynchronizerLatency(t *testing.T) {
	// Producer at 1 GHz phase 0, consumer at 1 GHz phase 0.3ns.
	p := clock.NewDomain("p", ns, 0, 1.65)
	c := clock.NewDomain("c", ns, 300*simtime.Picosecond, 1.65)
	f := NewMixedClockFIFO[string]("x", p, c, 4, 2)
	f.Put(0, 1, "a") // consumer edges after 0: 0.3, 1.3 => visible at 1.3ns
	if f.CanGet(300 * simtime.Picosecond) {
		t.Error("visible after one consumer edge; want two-flop latency")
	}
	if !f.CanGet(1300 * simtime.Picosecond) {
		t.Error("not visible at second consumer edge")
	}
	v, wait, ok := f.Get(1300 * simtime.Picosecond)
	if !ok || v != "a" || wait != 1300*simtime.Picosecond {
		t.Errorf("Get = %v,%v,%v", v, wait, ok)
	}
}

func TestMixedFIFOSingleFlopOption(t *testing.T) {
	p := clock.NewDomain("p", ns, 0, 1.65)
	c := clock.NewDomain("c", ns, 300*simtime.Picosecond, 1.65)
	f := NewMixedClockFIFO[int]("x", p, c, 4, 1)
	f.Put(0, 1, 7)
	if !f.CanGet(300 * simtime.Picosecond) {
		t.Error("single-flop FIFO should expose item at first consumer edge")
	}
}

func TestMixedFIFOFullFlagLatency(t *testing.T) {
	p := clock.NewDomain("p", ns, 0, 1.65)
	c := clock.NewDomain("c", ns, ns/2, 1.65)
	f := NewMixedClockFIFO[int]("x", p, c, 2, 2)
	f.Put(0, 1, 1)
	f.Put(0, 2, 2)
	if f.CanPut(0) {
		t.Error("FIFO should be full")
	}
	// Consumer takes the head at 2.5ns (edges 0.5, 1.5 — visible at 1.5;
	// dequeue at 2.5). Producer edges after 2.5: 3, 4 => sees space at 4ns.
	if !f.CanGet(5 * ns / 2) {
		t.Fatal("head not visible at 2.5ns")
	}
	f.Get(5 * ns / 2)
	if f.CanPut(3 * ns) {
		t.Error("freed slot visible after only one producer edge")
	}
	if !f.CanPut(4 * ns) {
		t.Error("freed slot not visible at second producer edge")
	}
}

func TestMixedFIFOStreamsAtFullThroughput(t *testing.T) {
	// Steady state: producer puts one item per cycle, consumer gets one per
	// cycle, capacity 4. After the pipe fills, no stall should ever occur —
	// the paper's "good throughput in the steady state".
	p := clock.NewDomain("p", ns, 0, 1.65)
	c := clock.NewDomain("c", ns, 700*simtime.Picosecond, 1.65)
	f := NewMixedClockFIFO[int]("x", p, c, 4, 2)
	puts, gets, putStalls := 0, 0, 0
	for cyc := 0; cyc < 1000; cyc++ {
		pt := simtime.Time(cyc) * ns
		ct := 700*simtime.Picosecond + simtime.Time(cyc)*ns
		// Consumer first (reverse pipeline order within a conceptual cycle).
		if f.CanGet(ct) {
			f.Get(ct)
			gets++
		}
		if f.CanPut(pt) {
			f.Put(pt, isa.Seq(cyc), cyc)
			puts++
		} else {
			putStalls++
		}
	}
	if putStalls > 8 {
		t.Errorf("steady-state put stalls = %d, want near zero", putStalls)
	}
	if gets < puts-8 {
		t.Errorf("consumer starved: %d gets vs %d puts", gets, puts)
	}
}

func TestFlushYoungerThan(t *testing.T) {
	p := clock.NewDomain("p", ns, 0, 1.65)
	c := clock.NewDomain("c", ns, ns/2, 1.65)
	f := NewMixedClockFIFO[int]("x", p, c, 8, 2)
	for i := 1; i <= 6; i++ {
		f.Put(0, isa.Seq(i*10), i)
	}
	if n := f.FlushYoungerThan(30); n != 3 {
		t.Errorf("flushed %d, want 3", n)
	}
	if f.Len() != 3 {
		t.Errorf("len = %d, want 3", f.Len())
	}
	// Remaining entries are 1,2,3 in order.
	at := 10 * ns
	for want := 1; want <= 3; want++ {
		v, _, ok := f.Get(at)
		if !ok || v != want {
			t.Fatalf("after flush Get = %v,%v want %d", v, ok, want)
		}
	}
	// Flush freed space immediately.
	if !f.CanPut(0) {
		t.Error("flush did not free space")
	}
}

func TestFlushAllFreesCapacityImmediately(t *testing.T) {
	p := clock.NewDomain("p", ns, 0, 1.65)
	c := clock.NewDomain("c", ns, ns/2, 1.65)
	f := NewMixedClockFIFO[int]("x", p, c, 2, 2)
	f.Put(0, 100, 1)
	f.Put(0, 101, 2)
	if f.CanPut(0) {
		t.Fatal("should be full")
	}
	f.FlushYoungerThan(0)
	if !f.CanPut(0) {
		t.Error("space not available after total flush")
	}
}

func TestStatsAccounting(t *testing.T) {
	clk := clock.NewDomain("c", ns, 0, 1.65)
	l := NewSyncLatch[int]("latch", clk, 8)
	l.Put(0, 1, 1)
	l.Put(0, 2, 2)
	l.Get(ns)
	l.Get(2 * ns)
	st := l.Stats()
	if st.Puts != 2 || st.Gets != 2 {
		t.Errorf("stats = %+v", st)
	}
	if st.TotalWait != ns+2*ns {
		t.Errorf("TotalWait = %v, want 3ns", st.TotalWait)
	}
}

func TestOverflowPanics(t *testing.T) {
	clk := clock.NewDomain("c", ns, 0, 1.65)
	l := NewSyncLatch[int]("latch", clk, 1)
	l.Put(0, 1, 1)
	defer func() {
		if recover() == nil {
			t.Error("overflow did not panic")
		}
	}()
	l.Put(0, 2, 2)
}

func TestEmptyGet(t *testing.T) {
	clk := clock.NewDomain("c", ns, 0, 1.65)
	l := NewSyncLatch[int]("latch", clk, 1)
	if _, _, ok := l.Get(ns); ok {
		t.Error("Get on empty link returned ok")
	}
	if _, ok := l.Peek(ns); ok {
		t.Error("Peek on empty link returned ok")
	}
}

func TestConstructorValidation(t *testing.T) {
	clk := clock.NewDomain("c", ns, 0, 1.65)
	for name, fn := range map[string]func(){
		"latch cap":  func() { NewSyncLatch[int]("x", clk, 0) },
		"fifo cap":   func() { NewMixedClockFIFO[int]("x", clk, clk, 0, 2) },
		"fifo sync":  func() { NewMixedClockFIFO[int]("x", clk, clk, 4, 0) },
		"fifo clock": func() { NewMixedClockFIFO[int]("x", nil, clk, 4, 2) },
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

// Property: with arbitrary relative clock periods/phases, every item is
// delivered exactly once, in order, and its wait is at least one consumer
// period (two-flop) but bounded by syncEdges+1 consumer periods when the
// consumer drains eagerly.
func TestMixedFIFODeliveryProperty(t *testing.T) {
	f := func(pPer, cPer uint16, cPhase uint16, n uint8) bool {
		pp := simtime.Duration(pPer%3000) + 500
		cp := simtime.Duration(cPer%3000) + 500
		ph := simtime.Time(cPhase) % cp
		p := clock.NewDomain("p", pp, 0, 1.65)
		c := clock.NewDomain("c", cp, ph, 1.65)
		fifo := NewMixedClockFIFO[int]("x", p, c, 1024, 2)
		count := int(n%40) + 1
		// Producer enqueues one item per producer cycle.
		for i := 0; i < count; i++ {
			fifo.Put(simtime.Time(i)*pp, isa.Seq(i), i)
		}
		// Consumer drains eagerly at every consumer edge.
		got := 0
		deadline := simtime.Time(count+10) * simtime.Time(pp+cp)
		for edge := ph; edge < deadline; edge += cp {
			for fifo.CanGet(edge) {
				v, wait, _ := fifo.Get(edge)
				if v != got {
					return false // out of order or duplicated
				}
				got++
				if wait < cp { // must exceed one consumer period (2 edges)
					return false
				}
			}
		}
		return got == count
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: perceived occupancy never exceeds capacity and CanPut is
// consistent with it under random interleaving.
func TestMixedFIFOCapacityProperty(t *testing.T) {
	f := func(ops []bool, capRaw uint8) bool {
		capacity := int(capRaw%7) + 1
		p := clock.NewDomain("p", 1000, 0, 1.65)
		c := clock.NewDomain("c", 1300, 400, 1.65)
		fifo := NewMixedClockFIFO[int]("x", p, c, capacity, 2)
		now := simtime.Time(0)
		seq := isa.Seq(0)
		for _, isPut := range ops {
			now += 700
			if isPut {
				if fifo.CanPut(now) {
					fifo.Put(now, seq, int(seq))
					seq++
				}
			} else {
				fifo.Get(now)
			}
			if fifo.Len() > capacity {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
