// Package simtime defines the simulated time base shared by every subsystem.
//
// Simulated time is an integer count of femtoseconds. The nominal processor
// clock in this study is 1 GHz (period = 1e6 fs), so every clock-period
// manipulation used by the paper's experiments — a 10% or 20% or 50%
// slowdown, or a divide-by-three — is exactly representable with no
// accumulated rounding drift. int64 femtoseconds cover about 2.5 hours of
// simulated time, far beyond any run in this repository.
package simtime

import (
	"fmt"
	"math"
)

// Time is an absolute simulated time in femtoseconds.
type Time int64

// Duration is a difference between two Times, in femtoseconds.
type Duration = Time

// Convenient duration units.
const (
	Picosecond  Duration = 1e3
	Nanosecond  Duration = 1e6
	Microsecond Duration = 1e9
	Millisecond Duration = 1e12
	Second      Duration = 1e15
)

// Never is a sentinel meaning "no scheduled time"; it sorts after every
// representable time.
const Never Time = math.MaxInt64

// Seconds converts t to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Nanoseconds converts t to floating-point nanoseconds.
func (t Time) Nanoseconds() float64 { return float64(t) / float64(Nanosecond) }

// String renders the time with an adaptive unit, e.g. "1.25ns" or "800ps".
func (t Time) String() string {
	neg := ""
	v := t
	if v < 0 {
		neg = "-"
		v = -v
	}
	switch {
	case v == Never:
		return "never"
	case v >= Second:
		return fmt.Sprintf("%s%.6gs", neg, float64(v)/float64(Second))
	case v >= Millisecond:
		return fmt.Sprintf("%s%.6gms", neg, float64(v)/float64(Millisecond))
	case v >= Microsecond:
		return fmt.Sprintf("%s%.6gus", neg, float64(v)/float64(Microsecond))
	case v >= Nanosecond:
		return fmt.Sprintf("%s%.6gns", neg, float64(v)/float64(Nanosecond))
	case v >= Picosecond:
		return fmt.Sprintf("%s%.6gps", neg, float64(v)/float64(Picosecond))
	default:
		return fmt.Sprintf("%s%dfs", neg, int64(v))
	}
}
