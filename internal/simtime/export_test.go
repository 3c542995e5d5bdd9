package simtime

import "math"

// FromSeconds converts floating-point seconds to a Time, rounding to the
// nearest femtosecond.
func FromSeconds(s float64) Time { return Time(math.Round(s * float64(Second))) }

// FromNanoseconds converts floating-point nanoseconds to a Time, rounding to
// the nearest femtosecond.
func FromNanoseconds(ns float64) Time { return Time(math.Round(ns * float64(Nanosecond))) }
