package dvfs

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func TestValidate(t *testing.T) {
	if err := validate(Default); err != nil {
		t.Fatalf("Default invalid: %v", err)
	}
	bad := []Params{
		{VNominal: 0, VThresh: 0.3, Alpha: 1.6},
		{VNominal: 1.65, VThresh: -0.1, Alpha: 1.6},
		{VNominal: 1.0, VThresh: 1.0, Alpha: 1.6},
		{VNominal: 1.65, VThresh: 0.35, Alpha: 0.5},
		{VNominal: 1.65, VThresh: 0.35, Alpha: 2.5},
	}
	for i, p := range bad {
		if validate(p) == nil {
			t.Errorf("case %d: expected error for %+v", i, p)
		}
	}
}

func TestDelayFactorAtNominal(t *testing.T) {
	if df := Default.DelayFactor(Default.VNominal); math.Abs(df-1) > 1e-12 {
		t.Errorf("DelayFactor(Vnom) = %v, want 1", df)
	}
}

func TestDelayFactorMonotonic(t *testing.T) {
	prev := math.Inf(1)
	for v := 0.40; v <= 1.65; v += 0.05 {
		df := Default.DelayFactor(v)
		if df >= prev {
			t.Fatalf("DelayFactor not strictly decreasing at v=%v: %v >= %v", v, df, prev)
		}
		prev = df
	}
}

func TestDelayFactorBelowThreshold(t *testing.T) {
	if !math.IsInf(Default.DelayFactor(0.2), 1) {
		t.Error("DelayFactor below Vt should be +Inf")
	}
}

func TestVoltageForSlowdownInvertsDelayFactor(t *testing.T) {
	for _, s := range []float64{1, 1.05, 1.1, 1.2, 1.5, 2, 3, 5} {
		v := Default.VoltageForSlowdown(s)
		if v <= Default.VThresh || v > Default.VNominal {
			t.Fatalf("V(%v) = %v out of range", s, v)
		}
		got := Default.DelayFactor(v)
		if math.Abs(got-s) > 1e-6*s {
			t.Errorf("DelayFactor(V(%v)) = %v, want %v", s, got, s)
		}
	}
}

func TestVoltageForSlowdownUnity(t *testing.T) {
	if v := Default.VoltageForSlowdown(1); v != Default.VNominal {
		t.Errorf("V(1) = %v, want Vnom", v)
	}
}

func TestEnergyScale(t *testing.T) {
	if es := Default.EnergyScale(Default.VNominal); es != 1 {
		t.Errorf("EnergyScale(Vnom) = %v", es)
	}
	if es := Default.EnergyScale(Default.VNominal / 2); math.Abs(es-0.25) > 1e-12 {
		t.Errorf("EnergyScale(Vnom/2) = %v, want 0.25", es)
	}
}

func TestEnergySavingsGrowWithSlowdown(t *testing.T) {
	// The paper's core DVFS claim: slowing a domain and dropping its voltage
	// yields super-linear energy savings (E ∝ V²).
	prev := 1.0
	for _, s := range []float64{1.1, 1.2, 1.5, 2, 3} {
		es := Default.EnergyScaleForSlowdown(s)
		if es >= prev {
			t.Fatalf("EnergyScaleForSlowdown(%v) = %v not < %v", s, es, prev)
		}
		prev = es
	}
	// A 3x slowdown should save well over half the energy.
	if es := Default.EnergyScaleForSlowdown(3); es > 0.5 {
		t.Errorf("EnergyScaleForSlowdown(3) = %v, want < 0.5", es)
	}
}

func TestSmallerAlphaNeedsHigherVoltage(t *testing.T) {
	// For smaller technologies (smaller alpha) the same slowdown allows a
	// smaller voltage reduction... actually Eq. 1 implies savings are HIGHER
	// for smaller alpha? The paper says savings are higher for smaller
	// technology generations (alpha between 1 and 2 vs 2). Verify direction:
	// at fixed slowdown, smaller alpha => lower voltage => more savings.
	p16 := Params{VNominal: 1.65, VThresh: 0.35, Alpha: 1.6}
	p20 := Params{VNominal: 1.65, VThresh: 0.35, Alpha: 2.0}
	v16 := p16.VoltageForSlowdown(2)
	v20 := p20.VoltageForSlowdown(2)
	if v16 >= v20 {
		t.Errorf("alpha=1.6 voltage %v should be below alpha=2.0 voltage %v", v16, v20)
	}
}

func TestIdealSynchronousEnergy(t *testing.T) {
	// Perfect performance => no savings.
	if e := Default.IdealSynchronousEnergy(1); e != 1 {
		t.Errorf("IdealSynchronousEnergy(1) = %v", e)
	}
	// 20% performance loss => energy well below 1.
	e := Default.IdealSynchronousEnergy(0.8)
	if e >= 1 || e <= 0 {
		t.Errorf("IdealSynchronousEnergy(0.8) = %v", e)
	}
	// Monotonic: more performance sacrificed => less energy.
	if Default.IdealSynchronousEnergy(0.7) >= Default.IdealSynchronousEnergy(0.9) {
		t.Error("ideal energy not monotonic in performance ratio")
	}
}

func TestPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"slowdown<1":  func() { Default.VoltageForSlowdown(0.9) },
		"perfRatio>1": func() { Default.IdealSynchronousEnergy(1.5) },
		"perfRatio=0": func() { Default.IdealSynchronousEnergy(0) },
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

// Property: VoltageForSlowdown is the inverse of DelayFactor over a wide
// range of parameters and slowdowns.
func TestInverseProperty(t *testing.T) {
	f := func(sRaw uint8, aRaw uint8) bool {
		s := 1 + float64(sRaw)/32        // 1 .. ~9
		alpha := 1 + float64(aRaw%11)/10 // 1.0 .. 2.0
		p := Params{VNominal: 1.65, VThresh: 0.35, Alpha: alpha}
		v := p.VoltageForSlowdown(s)
		return math.Abs(p.DelayFactor(v)-s) < 1e-5*s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// validate reports an error if p is physically meaningless: what
// VoltageForSlowdown assumes of its parameters and does not check.
func validate(p Params) error {
	switch {
	case p.VNominal <= 0:
		return fmt.Errorf("dvfs: nominal voltage %v must be positive", p.VNominal)
	case p.VThresh < 0:
		return fmt.Errorf("dvfs: threshold voltage %v must be non-negative", p.VThresh)
	case p.VThresh >= p.VNominal:
		return fmt.Errorf("dvfs: threshold %v must be below nominal %v", p.VThresh, p.VNominal)
	case p.Alpha < 1 || p.Alpha > 2:
		return fmt.Errorf("dvfs: alpha %v outside [1, 2]", p.Alpha)
	}
	return nil
}
