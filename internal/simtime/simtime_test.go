package simtime

import (
	"testing"
	"testing/quick"
)

func TestUnits(t *testing.T) {
	if Picosecond != 1000 {
		t.Errorf("Picosecond = %d fs, want 1000", int64(Picosecond))
	}
	if Nanosecond != 1000*Picosecond {
		t.Errorf("Nanosecond = %d fs, want 1e6", int64(Nanosecond))
	}
	if Second != 1e15 {
		t.Errorf("Second = %d fs, want 1e15", int64(Second))
	}
}

func TestSecondsRoundTrip(t *testing.T) {
	cases := []float64{0, 1e-9, 2.5e-9, 1e-6, 0.001, 1.0}
	for _, s := range cases {
		got := FromSeconds(s).Seconds()
		if diff := got - s; diff > 1e-12 || diff < -1e-12 {
			t.Errorf("FromSeconds(%g).Seconds() = %g", s, got)
		}
	}
}

func TestFromNanoseconds(t *testing.T) {
	if got := FromNanoseconds(1.25); got != 1250*Picosecond {
		t.Errorf("FromNanoseconds(1.25) = %v, want 1250ps", got)
	}
	if got := FromNanoseconds(0.5); got != 500*Picosecond {
		t.Errorf("FromNanoseconds(0.5) = %v, want 500ps", got)
	}
}

func TestString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{0, "0fs"},
		{500, "500fs"},
		{Picosecond, "1ps"},
		{1250 * Picosecond, "1.25ns"},
		{5 * Nanosecond, "5ns"},
		{3 * Microsecond, "3us"},
		{2 * Millisecond, "2ms"},
		{Second, "1s"},
		{-5 * Nanosecond, "-5ns"},
		{Never, "never"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("(%d).String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestMinMax(t *testing.T) {
	if Min(3, 5) != 3 || Min(5, 3) != 3 {
		t.Error("Min broken")
	}
	if Max(3, 5) != 5 || Max(5, 3) != 5 {
		t.Error("Max broken")
	}
	if Min(Never, 0) != 0 {
		t.Error("Min(Never, 0) != 0")
	}
}

func TestMinMaxProperties(t *testing.T) {
	f := func(a, b int64) bool {
		x, y := Time(a), Time(b)
		mn, mx := Min(x, y), Max(x, y)
		return mn <= mx && (mn == x || mn == y) && (mx == x || mx == y) && mn+mx == x+y
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
