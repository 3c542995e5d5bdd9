package clock

import (
	"galsim/internal/simtime"
	"galsim/internal/snapshot"
)

// AppendState appends the domain's snapshot section: its current period,
// reference edge (initial phase, or the last retune instant), voltage and
// slowdown. The identity fields (name, nominal period, nominal voltage)
// are rebuilt from configuration at restore and are not carried.
func (d *Domain) AppendState(e *snapshot.Encoder) {
	e.Int(int(d.period))
	e.Time(d.phase)
	e.F64(d.voltage)
	e.F64(d.slow)
}

// RestoreState reads a section AppendState wrote into a freshly built,
// not-yet-started domain. Unlike Retune it copies the captured period
// verbatim (no re-derivation), so a restored clock is bit-identical to the
// captured one. Failures are recorded in dec.
func (d *Domain) RestoreState(dec *snapshot.Decoder) {
	period, phase, voltage, slow := simtime.Duration(dec.Int()), dec.Time(), dec.F64(), dec.F64()
	switch {
	case dec.Err() != nil:
	case d.started:
		dec.Failf("clock: domain %q: RestoreState after start", d.name)
	case period <= 0:
		dec.Failf("clock: domain %q: restored period %v must be positive", d.name, period)
	// After a mid-run retune the phase is the retune instant, which may lie
	// beyond one period; only negative phases are impossible.
	case phase < 0:
		dec.Failf("clock: domain %q: restored phase %v negative", d.name, phase)
	case !(voltage > 0 && voltage <= d.vnom):
		dec.Failf("clock: domain %q: restored voltage %v outside (0, %v]", d.name, voltage, d.vnom)
	case !(slow >= 1):
		dec.Failf("clock: domain %q: restored slowdown %v < 1", d.name, slow)
	default:
		d.period = period
		d.phase = phase
		d.next = phase
		d.setVoltage(voltage)
		d.slow = slow
	}
}
