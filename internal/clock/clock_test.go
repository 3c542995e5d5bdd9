package clock

import (
	"math/rand"
	"testing"
	"testing/quick"

	"galsim/internal/simtime"
	"galsim/internal/snapshot"
)

const ns = simtime.Nanosecond

func TestEdgeArithmetic(t *testing.T) {
	d := NewDomain("test", 2*ns, ns/2, 1.65) // edges at 0.5, 2.5, 4.5, ...
	cases := []struct {
		t                simtime.Time
		atOrAfter, after simtime.Time
		cycle            int64
		secondEdge       simtime.Time
		descr            string
	}{
		{0, ns / 2, ns / 2, -1, 5 * ns / 2, "before first edge"},
		{ns / 2, ns / 2, 5 * ns / 2, 0, 9 * ns / 2, "exactly on edge 0"},
		{ns, 5 * ns / 2, 5 * ns / 2, 0, 9 * ns / 2, "mid cycle 0"},
		{5 * ns / 2, 5 * ns / 2, 9 * ns / 2, 1, 13 * ns / 2, "exactly on edge 1"},
		{3 * ns, 9 * ns / 2, 9 * ns / 2, 1, 13 * ns / 2, "mid cycle 1"},
	}
	for _, c := range cases {
		if got := d.EdgeAtOrAfter(c.t); got != c.atOrAfter {
			t.Errorf("%s: EdgeAtOrAfter(%v) = %v, want %v", c.descr, c.t, got, c.atOrAfter)
		}
		if got := d.EdgeAfter(c.t); got != c.after {
			t.Errorf("%s: EdgeAfter(%v) = %v, want %v", c.descr, c.t, got, c.after)
		}
		if got := d.CycleIndex(c.t); got != c.cycle {
			t.Errorf("%s: CycleIndex(%v) = %d, want %d", c.descr, c.t, got, c.cycle)
		}
		if got := d.NthEdgeAfter(c.t, 2); got != c.secondEdge {
			t.Errorf("%s: NthEdgeAfter(%v, 2) = %v, want %v", c.descr, c.t, got, c.secondEdge)
		}
	}
}

func TestEdgeTime(t *testing.T) {
	d := NewDomain("x", 1000, 250, 1.65)
	for k := int64(0); k < 5; k++ {
		want := simtime.Time(250 + 1000*k)
		if got := d.EdgeTime(k); got != want {
			t.Errorf("EdgeTime(%d) = %v, want %v", k, got, want)
		}
	}
}

func TestFrequency(t *testing.T) {
	d := NewDomain("x", ns, 0, 1.65)
	if f := d.FrequencyGHz(); f != 1.0 {
		t.Errorf("1ns period => %v GHz, want 1", f)
	}
	d.SetSlowdown(1.25)
	if f := d.FrequencyGHz(); f != 0.8 {
		t.Errorf("1.25 slowdown => %v GHz, want 0.8", f)
	}
}

func TestSetSlowdown(t *testing.T) {
	d := NewDomain("x", ns, 0, 1.65)
	d.SetSlowdown(1.1)
	if d.Period() != 1100*simtime.Picosecond {
		t.Errorf("period = %v, want 1.1ns", d.Period())
	}
	d.SetSlowdown(3)
	if d.Period() != 3*ns {
		t.Errorf("period = %v, want 3ns", d.Period())
	}
	if d.Slowdown() != 3 {
		t.Errorf("Slowdown() = %v", d.Slowdown())
	}
}

func TestSlowdownPreservesPhaseInvariant(t *testing.T) {
	d := NewDomain("x", 2*ns, 3*ns/2, 1.65)
	d.SetSlowdown(1) // no-op but must keep phase < period
	if d.Phase() >= d.Period() {
		t.Error("phase >= period after SetSlowdown(1)")
	}
}

func TestVoltageAndEnergyScale(t *testing.T) {
	d := NewDomain("x", ns, 0, 2.0)
	if es := d.EnergyScale(); es != 1.0 {
		t.Errorf("nominal EnergyScale = %v", es)
	}
	d.SetVoltage(1.0)
	if es := d.EnergyScale(); es != 0.25 {
		t.Errorf("EnergyScale at V/2 = %v, want 0.25", es)
	}
}

func TestFrozenAfterStart(t *testing.T) {
	d := NewDomain("x", ns, 0, 1.65)
	d.MarkStarted()
	for name, fn := range map[string]func(){
		"SetSlowdown": func() { d.SetSlowdown(2) },
		"SetVoltage":  func() { d.SetVoltage(1.0) },
		"SetPhase":    func() { d.SetPhase(1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s after start did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestConstructorValidation(t *testing.T) {
	for name, fn := range map[string]func(){
		"zero period":    func() { NewDomain("x", 0, 0, 1.65) },
		"negative phase": func() { NewDomain("x", ns, -1, 1.65) },
		"phase>=period":  func() { NewDomain("x", ns, ns, 1.65) },
		"zero voltage":   func() { NewDomain("x", ns, 0, 0) },
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

// Properties of edge arithmetic for arbitrary period/phase/instant.
func TestEdgeProperties(t *testing.T) {
	f := func(periodRaw uint16, phaseRaw uint16, tRaw uint32) bool {
		period := simtime.Duration(periodRaw%10000) + 1
		phase := simtime.Time(phaseRaw) % period
		at := simtime.Time(tRaw % 10_000_000)
		d := NewDomain("p", period, phase, 1.65)

		after := d.EdgeAfter(at)
		atOrAfter := d.EdgeAtOrAfter(at)
		// Both results are genuine edges.
		if (after-phase)%period != 0 || (atOrAfter-phase)%period != 0 {
			return false
		}
		// Ordering relations.
		if !(after > at && atOrAfter >= at) {
			return false
		}
		// Tightness: one period earlier would violate the constraint.
		if after-period > at {
			return false
		}
		if atOrAfter-period >= at && atOrAfter >= period+phase {
			return false
		}
		// NthEdgeAfter consistency.
		if d.NthEdgeAfter(at, 1) != after || d.NthEdgeAfter(at, 3) != after+2*period {
			return false
		}
		// CycleIndex consistency: edge of the returned cycle is <= at.
		if ci := d.CycleIndex(at); ci >= 0 {
			if d.EdgeTime(ci) > at || d.EdgeTime(ci+1) <= at {
				return false
			}
		} else if at >= phase {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// closedEdgeAfter is the closed form EdgeAfter must agree with.
func closedEdgeAfter(d *Domain, t simtime.Time) simtime.Time {
	if t < d.Phase() {
		return d.Phase()
	}
	return d.Phase() + ((t-d.Phase())/d.Period()+1)*d.Period()
}

// The stepped EdgeAfter, NthEdgeAfter and the cached EnergyScale equal their
// formulas exactly under forward, repeated, backward and jumping queries
// interleaved with retunes, restores and the pre-start setters.
func TestSteppedEdgesMatchClosedForm(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 200; trial++ {
		period := simtime.Duration(rng.Intn(5000) + 1)
		d := NewDomain("p", period, simtime.Time(rng.Int63n(int64(period))), 1.65)
		now := simtime.Time(0)
		for op := 0; op < 400; op++ {
			switch x := rng.Intn(100); {
			case x < 45: // forward within a period or two
				now += simtime.Time(rng.Int63n(int64(2*d.Period()) + 1))
			case x < 55: // repeat the last instant
			case x < 70: // backward, possibly before the first edge
				now -= simtime.Time(rng.Int63n(int64(4*d.Period()) + 1))
				if now < 0 {
					now = simtime.Time(rng.Int63n(int64(d.Phase()) + 1))
				}
			case x < 80: // jump far ahead
				now += simtime.Time(rng.Int63n(1000*int64(d.Period())) + 1)
			case x < 88:
				if now < d.Phase() {
					now = d.Phase()
				}
				v := 0.0
				if rng.Intn(2) == 0 {
					v = 0.8 + 0.85*rng.Float64()
				}
				d.Retune(now, 1+2*rng.Float64(), v)
			case x < 94:
				e := snapshot.NewEncoder(nil)
				e.Int(rng.Intn(5000) + 1)
				e.Time(simtime.Time(rng.Int63n(int64(now) + 1)))
				e.F64(0.8 + 0.85*rng.Float64())
				e.F64(1 + rng.Float64())
				dec := snapshot.NewDecoder(e.Bytes())
				if d.RestoreState(dec); dec.Finish() != nil {
					t.Fatal(dec.Err())
				}
			case x < 96:
				d.SetVoltage(0.8 + 0.85*rng.Float64())
			case x < 98:
				d.SetSlowdown(1 + rng.Float64())
			default:
				d.SetPhase(simtime.Time(rng.Int63n(int64(d.Period()))))
			}
			want := closedEdgeAfter(d, now)
			if got := d.EdgeAfter(now); got != want {
				t.Fatalf("trial %d op %d: EdgeAfter(%v) = %v, want %v (%v)", trial, op, now, got, want, d)
			}
			n := rng.Int63n(3) + 1
			if got, want := d.NthEdgeAfter(now, n), want+simtime.Time(n-1)*d.Period(); got != want {
				t.Fatalf("trial %d op %d: NthEdgeAfter(%v, %d) = %v, want %v (%v)", trial, op, now, n, got, want, d)
			}
			r := d.Voltage() / d.vnom
			if got := d.EnergyScale(); got != r*r {
				t.Fatalf("trial %d op %d: EnergyScale = %v, want %v", trial, op, got, r*r)
			}
		}
	}
}
