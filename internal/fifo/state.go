package fifo

import (
	"fmt"

	"galsim/internal/isa"
	"galsim/internal/simtime"
)

// EntryState is one queued entry in snapshot form. The payload is carried
// in a caller-chosen serialized type S (an instruction index, a wake tag —
// whatever the link's T maps to).
type EntryState[S any] struct {
	Item      S            `json:"item"`
	Seq       isa.Seq      `json:"seq"`
	Enqueued  simtime.Time `json:"enq"`
	VisibleAt simtime.Time `json:"vis"`
}

// LinkState is the full mutable state of a Link, in logical (head-first)
// order. The rule-specific fields are only meaningful for the matching
// constructor's links and zero otherwise.
type LinkState[S any] struct {
	Entries []EntryState[S] `json:"entries,omitempty"`
	Stats   Stats           `json:"stats"`
	// FreeAt is a mixed-clock FIFO's pending slot-release visibility times.
	FreeAt []simtime.Time `json:"free_at,omitempty"`
	// BusyUntil/InFlight are a stretch link's open-transaction state.
	BusyUntil simtime.Time `json:"busy_until,omitempty"`
	InFlight  int          `json:"in_flight,omitempty"`
}

// CaptureLink snapshots a link's entries (converted through conv), stats,
// and rule-specific timing state.
func CaptureLink[T, S any](l *Link[T], conv func(T) S) LinkState[S] {
	st := LinkState[S]{Stats: l.stats, FreeAt: append([]simtime.Time(nil), l.freeAt...),
		BusyUntil: l.busyUntil, InFlight: l.inFlight}
	for i := 0; i < l.n; i++ {
		e := &l.buf[l.slot(i)]
		st.Entries = append(st.Entries, EntryState[S]{
			Item: conv(e.item), Seq: e.seq, Enqueued: e.enqueued, VisibleAt: e.visibleAt,
		})
	}
	return st
}

// RestoreLink reinstates a captured state into a freshly built, empty link
// from the same constructor and capacity. Entries bypass Put so the
// captured per-entry visibility times and the stats counters are carried
// verbatim rather than recomputed.
func RestoreLink[T, S any](l *Link[T], st LinkState[S], conv func(S) T) error {
	if l.n != 0 {
		return fmt.Errorf("fifo: link %q: restore into non-empty link (%d entries)", l.name, l.n)
	}
	if len(st.Entries) > len(l.buf) {
		// The capture came from a ring that had grown past its rated
		// capacity (a stretch link admits transient overshoot); grow to fit.
		l.buf = make([]entry[T], len(st.Entries))
	}
	l.head = 0
	for i, es := range st.Entries {
		l.buf[i] = entry[T]{item: conv(es.Item), seq: es.Seq, enqueued: es.Enqueued, visibleAt: es.VisibleAt}
	}
	l.n = len(st.Entries)
	l.stats = st.Stats
	l.freeAt = append([]simtime.Time(nil), st.FreeAt...)
	l.busyUntil = st.BusyUntil
	l.inFlight = st.InFlight
	return nil
}
