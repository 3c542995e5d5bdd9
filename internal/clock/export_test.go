package clock

import (
	"fmt"

	"galsim/internal/simtime"
)

// EdgeTime returns the time of edge index k (k >= 0).
func (d *Domain) EdgeTime(k int64) simtime.Time {
	if k < 0 {
		panic(fmt.Sprintf("clock: domain %q: negative edge index %d", d.name, k))
	}
	return d.phase + simtime.Time(k)*d.period
}

// CycleIndex returns the index of the most recent edge at or before t, or -1
// if t precedes the first edge. An instant exactly on an edge belongs to
// that edge's cycle.
func (d *Domain) CycleIndex(t simtime.Time) int64 {
	if t < d.phase {
		return -1
	}
	return int64((t - d.phase) / d.period)
}
