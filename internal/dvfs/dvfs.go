// Package dvfs implements the supply-voltage model of §3.3 and §5.2 of the
// paper: the delay–voltage relationship
//
//	D ∝ Vdd / (Vdd − Vt)^α            (Equation 1, after Chen & Hu)
//
// where Vt is the transistor threshold voltage and α a technology-dependent
// exponent (2 for 0.35 µm; 1.6 for the paper's 0.13 µm experiments). Given a
// clock slowdown factor chosen for a domain, the solver finds the minimum
// supply voltage at which the logic still meets the stretched cycle time;
// dynamic energy then scales with the square of the voltage. The model is
// the paper's idealized one: DC-DC conversion and level-converter overheads
// are not charged.
package dvfs

import (
	"fmt"
	"math"
)

// Params describes the technology operating point.
type Params struct {
	VNominal float64 // nominal supply voltage (V)
	VThresh  float64 // transistor threshold voltage Vt (V)
	Alpha    float64 // velocity-saturation exponent α
}

// Default is the operating point used throughout the paper's second
// experiment set: a 0.13 µm process with α = 1.6 run at a 1.65 V nominal
// supply with Vt = 0.35 V.
var Default = Params{VNominal: 1.65, VThresh: 0.35, Alpha: 1.6}

// delay returns the un-normalized logic delay at supply voltage v.
func (p Params) delay(v float64) float64 {
	return v / math.Pow(v-p.VThresh, p.Alpha)
}

// DelayFactor returns D(v)/D(Vnominal): how much slower logic runs at supply
// voltage v relative to the nominal operating point. It is 1 at v = Vnominal
// and grows without bound as v approaches Vt from above.
func (p Params) DelayFactor(v float64) float64 {
	if v <= p.VThresh {
		return math.Inf(1)
	}
	return p.delay(v) / p.delay(p.VNominal)
}

// VoltageForSlowdown returns the minimum supply voltage at which logic delay
// is no more than slowdown × nominal delay; i.e. it solves
// DelayFactor(v) = slowdown for v. slowdown must be >= 1. The answer is
// found by bisection (DelayFactor is strictly decreasing in v for α >= 1)
// to sub-millivolt precision. p must be physically meaningful — a positive
// nominal voltage above a non-negative threshold, α in [1, 2] — as Default
// is; it is not checked on every call.
func (p Params) VoltageForSlowdown(slowdown float64) float64 {
	if slowdown < 1 {
		panic(fmt.Sprintf("dvfs: slowdown %v < 1", slowdown))
	}
	if slowdown == 1 {
		return p.VNominal
	}
	lo := p.VThresh + 1e-9 // DelayFactor(lo) ≈ ∞ > slowdown
	hi := p.VNominal       // DelayFactor(hi) = 1 < slowdown
	for i := 0; i < 100; i++ {
		mid := (lo + hi) / 2
		if p.DelayFactor(mid) > slowdown {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}

// EnergyScale returns the factor by which dynamic energy per switching event
// changes at supply voltage v: (v/Vnominal)².
func (p Params) EnergyScale(v float64) float64 {
	r := v / p.VNominal
	return r * r
}

// EnergyScaleForSlowdown composes VoltageForSlowdown and EnergyScale: the
// per-access dynamic energy factor earned by slowing a domain by the given
// factor and dropping its voltage accordingly.
func (p Params) EnergyScaleForSlowdown(slowdown float64) float64 {
	return p.EnergyScale(p.VoltageForSlowdown(slowdown))
}

// IdealSynchronousEnergy models the "ideal" comparison column of Figures 12
// and 13: a fully synchronous processor slowed uniformly (single global
// clock and voltage scaled together) until its performance matches a GALS
// configuration's measured relative performance perfRatio (< 1). Running
// 1/perfRatio slower at voltage V(1/perfRatio), it executes the same
// instruction count with energy scaled by (V/Vnom)². The return value is
// that energy, normalized to the full-speed base machine.
func (p Params) IdealSynchronousEnergy(perfRatio float64) float64 {
	if perfRatio <= 0 || perfRatio > 1 {
		panic(fmt.Sprintf("dvfs: performance ratio %v outside (0, 1]", perfRatio))
	}
	return p.EnergyScaleForSlowdown(1 / perfRatio)
}
