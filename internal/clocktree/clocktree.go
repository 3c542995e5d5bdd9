// Package clocktree reproduces the paper's §2 motivation material: Table 1's
// survey of global clock skew across four CMOS process generations, and a
// small Monte-Carlo model of process-variation-induced skew in a buffered
// clock distribution tree (after the argument of Restle et al. that skew
// arises mainly from variation in the buffer tree).
package clocktree

import (
	"fmt"
	"math"
	"math/rand"
)

// TrendRow is one processor from the paper's Table 1.
type TrendRow struct {
	Design      string
	TechnologyM float64 // feature size in micrometers
	Year        int
	Devices     float64 // transistor count
	CycleNS     float64 // cycle time in nanoseconds
	SkewPS      float64 // global clock skew in picoseconds
	Remarks     string
}

// SkewFraction returns skew as a fraction of the cycle time — the quantity
// whose growth motivates GALS design.
func (r TrendRow) SkewFraction() float64 {
	return r.SkewPS / (r.CycleNS * 1000)
}

// Table1 is the published data reproduced verbatim from the paper.
func Table1() []TrendRow {
	return []TrendRow{
		{"Alpha 21064", 0.8, 1992, 1.6e6, 5.0, 200, "Single line of drivers for clock grid"},
		{"Alpha 21164", 0.5, 1995, 9.3e6, 3.3, 80, "Two lines of drivers for clock grid"},
		{"Alpha 21264", 0.35, 1998, 15.2e6, 1.7, 65, "16 distributed lines of drivers"},
		{"Itanium (with active deskewing)", 0.18, 2001, 25.4e6, 1.25, 28, "32 active deskewing circuits"},
		{"Itanium (without active deskewing)", 0.18, 2001, 25.4e6, 1.25, 110, "Projected skew without deskewing"},
	}
}

// TreeConfig parameterizes the skew estimator: a balanced H-tree of buffers
// from the PLL to the leaf loads.
type TreeConfig struct {
	Depth       int     // buffer levels from root to leaf
	BufferDelay float64 // nominal per-buffer delay (ps)
	SigmaFrac   float64 // per-buffer delay standard deviation, fraction of nominal
	WireDelay   float64 // per-level wire delay (ps), matched across branches
}

// Fixed parameters of the Monte-Carlo model.
const (
	wireSigma    float64 = 1.5 // wire delay mismatch sigma (ps)
	monteCarloN          = 200 // number of random tree instances
	leavesPerSim         = 256 // leaf count sampled per instance (2^Depth capped)
)

// DefaultTree is sized after a late-1990s global distribution: 8 buffer
// levels at ~50 ps each with 4% sigma.
func DefaultTree() TreeConfig {
	return TreeConfig{
		Depth:       8,
		BufferDelay: 50,
		SigmaFrac:   0.04,
		WireDelay:   30,
	}
}

// Validate reports an error for malformed parameters.
func (c TreeConfig) Validate() error {
	switch {
	case c.Depth < 1 || c.Depth > 24:
		return fmt.Errorf("clocktree: depth %d outside [1,24]", c.Depth)
	case c.BufferDelay <= 0 || c.WireDelay < 0:
		return fmt.Errorf("clocktree: non-positive delays")
	case c.SigmaFrac < 0 || c.SigmaFrac > 1:
		return fmt.Errorf("clocktree: sigma fraction %v outside [0,1]", c.SigmaFrac)
	}
	return nil
}

// Estimate runs the Monte-Carlo model and returns the mean and worst global
// skew (max leaf arrival − min leaf arrival) in picoseconds.
func Estimate(cfg TreeConfig, seed int64) (meanSkewPS, worstSkewPS float64, err error) {
	if err := cfg.Validate(); err != nil {
		return 0, 0, err
	}
	rng := rand.New(rand.NewSource(seed))
	leaves := leavesPerSim
	if full := 1 << cfg.Depth; leaves > full {
		leaves = full
	}
	var sum, worst float64
	for n := 0; n < monteCarloN; n++ {
		minA, maxA := math.Inf(1), math.Inf(-1)
		for l := 0; l < leaves; l++ {
			// Each leaf's arrival is the sum of Depth independent buffer and
			// wire delays along its root-to-leaf path. Sharing of upper
			// levels between leaves is ignored, which slightly overestimates
			// skew; the paper's argument needs only the trend.
			arrival := 0.0
			for d := 0; d < cfg.Depth; d++ {
				arrival += cfg.BufferDelay * (1 + cfg.SigmaFrac*rng.NormFloat64())
				arrival += cfg.WireDelay + wireSigma*rng.NormFloat64()
			}
			minA = math.Min(minA, arrival)
			maxA = math.Max(maxA, arrival)
		}
		skew := maxA - minA
		sum += skew
		worst = math.Max(worst, skew)
	}
	return sum / monteCarloN, worst, nil
}

// ScaleForGeneration derives a TreeConfig for a given feature size relative
// to a 0.35 µm baseline: smaller features mean more buffer levels (bigger
// dies in gate pitches) and a larger variation fraction.
func ScaleForGeneration(techUM float64) TreeConfig {
	cfg := DefaultTree()
	scale := 0.35 / techUM
	cfg.Depth = 8 + int(math.Round(math.Log2(scale)*2))
	if cfg.Depth < 4 {
		cfg.Depth = 4
	}
	cfg.SigmaFrac = 0.04 * math.Sqrt(scale)
	cfg.BufferDelay = 50 / scale
	cfg.WireDelay = 30 // interconnect does not scale with the transistors
	return cfg
}
