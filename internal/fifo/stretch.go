package fifo

import (
	"fmt"

	"galsim/internal/clock"
	"galsim/internal/simtime"
)

// NewStretchLink builds a link that models the stretchable-clock
// communication scheme the paper discusses (and rejects) in §3.2: an
// arbiter inside the loop of each ring oscillator stretches one phase of
// *both* clocks while a handshake and data transfer take place. The scheme
// is elegant and fail-safe but serializes communication — "stretching the
// clock every cycle would lead to a situation where the effective clock
// frequency is determined not by the clock generator but by the rate of
// communication with other synchronous modules".
//
// The model: the link is a rendezvous of configurable width (the number of
// items one stretched transaction can carry). Each transaction occupies the
// channel for a handshake duration during which no further transfer may
// begin, and the transferred items become visible to the consumer only when
// the handshake completes. This captures the property that matters at the
// architecture level: throughput is bounded by the handshake rate rather
// than by either clock. (The induced stall of the two synchronous blocks is
// reflected in the transfer serialization rather than by actually modulating
// the clock events, whose periods are closed-form; see DESIGN.md.)
//
// handshake is the duration of one stretched transaction; width is the
// number of items it can carry (its "bus width" in items).
func NewStretchLink[T any](name string, producer, consumer *clock.Domain, handshake simtime.Duration, width int) *Link[T] {
	if handshake <= 0 {
		panic(fmt.Sprintf("fifo: stretch link %q handshake %v must be positive", name, handshake))
	}
	if width <= 0 {
		panic(fmt.Sprintf("fifo: stretch link %q width %d must be positive", name, width))
	}
	if producer == nil || consumer == nil {
		panic(fmt.Sprintf("fifo: stretch link %q requires both clock domains", name))
	}
	l := newLink[T](name, ruleStretch, width, producer, consumer)
	l.handshake = handshake
	return l
}

// stretchVisibleAt accounts one Put on a stretch link and returns the time
// its item becomes visible. The first item of a transaction starts the
// handshake; all items of one transaction become visible together at the
// first consumer edge at or after handshake completion.
func (l *Link[T]) stretchVisibleAt(now simtime.Time) simtime.Time {
	if now >= l.busyUntil {
		// Start a new transaction.
		l.busyUntil = now + l.handshake
		l.inFlight = 0
	}
	l.inFlight++
	return l.consumer.EdgeAtOrAfter(l.busyUntil)
}
