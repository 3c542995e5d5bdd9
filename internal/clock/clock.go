// Package clock models the local clocks of a GALS system and the single
// global clock of a fully synchronous system.
//
// Each Domain is an independent clock: a period, a starting phase and a
// supply voltage. In the paper's GALS machine there are five such domains
// (fetch, decode, integer, floating-point, memory), each generated by a
// local ring oscillator with an arbitrary starting phase; in the base
// machine there is exactly one. Edge arithmetic on a Domain (the time of the
// next rising edge after an instant, the k-th edge after an instant, the
// cycle index of an instant) is the foundation of the mixed-clock FIFO
// synchronization model and of the squash-bus latency model.
//
// The simulator asks for the edge after the current instant, and the
// current instant only moves forward, so EdgeAfter steps from the edge it
// last answered and divides only when a query moves backward or jumps more
// than a period ahead.
//
// A Domain's frequency and voltage are fixed for the duration of a
// simulation run: the paper's second set of experiments applies *static*
// per-domain slowdowns chosen per application (§5.2). Frequencies are
// adjusted between runs via SetSlowdown, which must be called before the
// domain is started.
package clock

import (
	"fmt"
	"math"

	"galsim/internal/simtime"
)

// Domain is one synchronous block's clock. It is not safe for concurrent
// use: EdgeAfter moves the domain's record of the last edge it answered.
type Domain struct {
	name    string
	nominal simtime.Duration // period at slowdown 1.0
	period  simtime.Duration // current period
	phase   simtime.Time     // time of edge 0
	voltage float64          // current supply voltage (V)
	vnom    float64          // nominal supply voltage (V)
	slow    float64          // period / nominal
	escale  float64          // (voltage/vnom)², kept in step with voltage
	started bool

	// next is the edge the last forward EdgeAfter query returned: every
	// instant in [next−period, next) has it as its EdgeAfter. Each change of
	// period or phase resets it to the phase.
	next simtime.Time
}

// NewDomain creates a clock domain with the given nominal period, starting
// phase and nominal supply voltage. The phase must be non-negative and less
// than the period (a ring oscillator's startup offset).
func NewDomain(name string, period simtime.Duration, phase simtime.Time, vnom float64) *Domain {
	if period <= 0 {
		panic(fmt.Sprintf("clock: domain %q: period %v must be positive", name, period))
	}
	if phase < 0 || phase >= period {
		panic(fmt.Sprintf("clock: domain %q: phase %v outside [0, %v)", name, phase, period))
	}
	if vnom <= 0 {
		panic(fmt.Sprintf("clock: domain %q: nominal voltage %v must be positive", name, vnom))
	}
	d := &Domain{
		name:    name,
		nominal: period,
		period:  period,
		phase:   phase,
		vnom:    vnom,
		slow:    1.0,
		next:    phase,
	}
	d.setVoltage(vnom)
	return d
}

// Name returns the domain's diagnostic name.
func (d *Domain) Name() string { return d.name }

// Period returns the current clock period.
func (d *Domain) Period() simtime.Duration { return d.period }

// Phase returns the time of the clock's first edge (edge index 0).
func (d *Domain) Phase() simtime.Time { return d.phase }

// FrequencyGHz returns the current clock frequency in GHz.
func (d *Domain) FrequencyGHz() float64 {
	return float64(simtime.Nanosecond) / float64(d.period)
}

// Voltage returns the current supply voltage.
func (d *Domain) Voltage() float64 { return d.voltage }

// Slowdown returns period/nominalPeriod (1.0 = full speed).
func (d *Domain) Slowdown() float64 { return d.slow }

// EnergyScale returns the factor by which dynamic energy per access changes
// at the current supply voltage: (V/Vnom)². Energy consumption is dependent
// on the square of the supply voltage (paper §3.3).
func (d *Domain) EnergyScale() float64 { return d.escale }

// setVoltage sets the supply voltage and recomputes EnergyScale.
func (d *Domain) setVoltage(v float64) {
	d.voltage = v
	r := v / d.vnom
	d.escale = r * r
}

// MarkStarted freezes the domain's frequency and voltage; called by the
// simulator when it starts firing the domain's clock edges.
func (d *Domain) MarkStarted() { d.started = true }

// Started reports whether the domain has been frozen by MarkStarted.
func (d *Domain) Started() bool { return d.started }

// SetSlowdown stretches the clock period to factor × nominal. factor must be
// >= 1 (this study never overclocks a domain). It must be called before the
// simulation starts.
func (d *Domain) SetSlowdown(factor float64) {
	if d.started {
		panic(fmt.Sprintf("clock: domain %q: SetSlowdown after start", d.name))
	}
	if factor < 1 {
		panic(fmt.Sprintf("clock: domain %q: slowdown %v < 1", d.name, factor))
	}
	d.slow = factor
	d.period = simtime.Duration(math.Round(float64(d.nominal) * factor))
	if d.phase >= d.period {
		d.phase %= d.period
	}
	d.next = d.phase
}

// SetVoltage sets the supply voltage (typically from the dvfs solver after
// SetSlowdown). It must be called before the simulation starts.
func (d *Domain) SetVoltage(v float64) {
	if d.started {
		panic(fmt.Sprintf("clock: domain %q: SetVoltage after start", d.name))
	}
	if v <= 0 || v > d.vnom {
		panic(fmt.Sprintf("clock: domain %q: voltage %v outside (0, %v]", d.name, v, d.vnom))
	}
	d.setVoltage(v)
}

// SetPhase changes the starting phase; must be in [0, period) and set before
// the run starts. Used by the phase-sensitivity experiment.
func (d *Domain) SetPhase(phase simtime.Time) {
	if d.started {
		panic(fmt.Sprintf("clock: domain %q: SetPhase after start", d.name))
	}
	if phase < 0 || phase >= d.period {
		panic(fmt.Sprintf("clock: domain %q: phase %v outside [0, %v)", d.name, phase, d.period))
	}
	d.phase = phase
	d.next = phase
}

// Retune rebases the clock at time at — which must be at or after the
// domain's current edge — with a new slowdown factor and, optionally, a new
// supply voltage (0 keeps the current voltage). Unlike SetSlowdown this is
// legal while the simulation runs: it is the mechanism behind
// application-driven dynamic frequency/voltage scaling, the extension the
// paper's conclusion points to. Edge arithmetic for instants before at is
// undefined after a retune; the simulator only ever asks about the future.
func (d *Domain) Retune(at simtime.Time, slowdown, voltage float64) {
	if slowdown < 1 {
		panic(fmt.Sprintf("clock: domain %q: retune slowdown %v < 1", d.name, slowdown))
	}
	if at < d.phase {
		panic(fmt.Sprintf("clock: domain %q: retune at %v before first edge %v", d.name, at, d.phase))
	}
	d.slow = slowdown
	d.period = simtime.Duration(math.Round(float64(d.nominal) * slowdown))
	d.phase = at // edge indices restart at the retune instant
	d.next = at
	if voltage > 0 {
		if voltage > d.vnom {
			panic(fmt.Sprintf("clock: domain %q: retune voltage %v above nominal %v", d.name, voltage, d.vnom))
		}
		d.setVoltage(voltage)
	}
}

// EdgeAtOrAfter returns the time of the first edge at or after t.
func (d *Domain) EdgeAtOrAfter(t simtime.Time) simtime.Time {
	if t <= d.phase {
		return d.phase
	}
	k := (t - d.phase + d.period - 1) / d.period
	return d.phase + k*d.period
}

// EdgeAfter returns the time of the first edge strictly after t.
func (d *Domain) EdgeAfter(t simtime.Time) simtime.Time {
	if e := d.next; t < e && t >= e-d.period {
		return e
	}
	return d.seek(t)
}

// seek answers an EdgeAfter query that the last edge answered does not: a
// step to the following edge, or the closed form when the query jumps
// ahead or moves backward. A backward query leaves the last edge in place,
// so the forward queries around it keep stepping.
func (d *Domain) seek(t simtime.Time) simtime.Time {
	switch e := d.next; {
	case t < e:
		return d.edgeAfter(t)
	case t < e+d.period:
		d.next = e + d.period
	default:
		d.next = d.edgeAfter(t)
	}
	return d.next
}

// edgeAfter is EdgeAfter in closed form.
func (d *Domain) edgeAfter(t simtime.Time) simtime.Time {
	if t < d.phase {
		return d.phase
	}
	k := (t-d.phase)/d.period + 1
	return d.phase + k*d.period
}

// NthEdgeAfter returns the time of the n-th edge strictly after t (n >= 1).
// NthEdgeAfter(t, 1) == EdgeAfter(t). This is the primitive the mixed-clock
// FIFO model uses: a flag toggled at time t is observed by this domain after
// its two-flop synchronizer at NthEdgeAfter(t, 2).
func (d *Domain) NthEdgeAfter(t simtime.Time, n int64) simtime.Time {
	if n < 1 {
		panic(fmt.Sprintf("clock: domain %q: NthEdgeAfter n=%d < 1", d.name, n))
	}
	return d.EdgeAfter(t) + simtime.Time(n-1)*d.period
}

// String implements fmt.Stringer.
func (d *Domain) String() string {
	return fmt.Sprintf("clock %q: %.3f GHz (period %v, phase %v, %.3f V)",
		d.name, d.FrequencyGHz(), d.period, d.phase, d.voltage)
}
