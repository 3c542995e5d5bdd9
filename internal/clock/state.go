package clock

import (
	"fmt"

	"galsim/internal/simtime"
)

// State is the mutable portion of a Domain, captured for simulation
// snapshots. The identity fields (name, nominal period, nominal voltage)
// are rebuilt from configuration at restore and are not carried.
type State struct {
	Period   simtime.Duration `json:"period"`
	Phase    simtime.Time     `json:"phase"` // reference edge: initial phase, or the last retune instant
	Voltage  float64          `json:"voltage"`
	Slowdown float64          `json:"slowdown"`
}

// State captures the domain's current timing and voltage.
func (d *Domain) State() State {
	return State{Period: d.period, Phase: d.phase, Voltage: d.voltage, Slowdown: d.slow}
}

// RestoreState reinstates a previously captured State on a freshly built,
// not-yet-started domain. Unlike Retune it copies the captured period
// verbatim (no re-derivation), so a restored clock is bit-identical to the
// captured one.
func (d *Domain) RestoreState(st State) error {
	if d.started {
		return fmt.Errorf("clock: domain %q: RestoreState after start", d.name)
	}
	if st.Period <= 0 {
		return fmt.Errorf("clock: domain %q: restored period %v must be positive", d.name, st.Period)
	}
	// After a mid-run retune the phase is the retune instant, which may lie
	// beyond one period; only negative phases are impossible.
	if st.Phase < 0 {
		return fmt.Errorf("clock: domain %q: restored phase %v negative", d.name, st.Phase)
	}
	if st.Voltage <= 0 || st.Voltage > d.vnom {
		return fmt.Errorf("clock: domain %q: restored voltage %v outside (0, %v]", d.name, st.Voltage, d.vnom)
	}
	if st.Slowdown < 1 {
		return fmt.Errorf("clock: domain %q: restored slowdown %v < 1", d.name, st.Slowdown)
	}
	d.period = st.Period
	d.phase = st.Phase
	d.next = st.Phase
	d.setVoltage(st.Voltage)
	d.slow = st.Slowdown
	return nil
}
