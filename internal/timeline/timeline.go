// Package timeline is an opt-in, ring-buffered event tracer for the
// simulator and the fleet around it. It follows the same discipline as the
// interval sampler: value-typed records, no allocation on the hot path
// after setup, and — when tracing is off — a single predictable branch at
// every tap site (`if c.tl != nil`), so the allocation-free simulation
// path is untouched.
//
// Two layers share the package:
//
//   - Recorder captures microarchitectural events (clock retunes, FIFO
//     stall windows, squash/recovery spans, occupancy transitions) in sim
//     time and exports them as Chrome trace-event JSON loadable in
//     Perfetto: one track per clock domain, one per cross-domain link,
//     plus counter tracks for structure occupancy.
//   - Span / SpanCollector record wall-clock spans across the fleet
//     (service → coordinator → worker → engine) under one W3C trace ID,
//     rendered in the same trace-event JSON so a sweep's critical path is
//     visible in one Perfetto view.
//
// A Recorder is single-goroutine, like the simulator core it instruments.
// SpanCollector is safe for concurrent use.
package timeline

import "galsim/internal/simtime"

// Kind classifies an Event. The values map onto Chrome trace-event
// phases: instant (i), duration begin/end (B/E) and counter (C).
type Kind uint8

const (
	KindInstant Kind = iota
	KindBegin
	KindEnd
	KindCounter
)

// TrackID identifies a timeline row registered with RegisterTrack.
type TrackID uint16

// NameID identifies an interned event name.
type NameID uint16

// Event is one value-typed trace record. 24 bytes; events live in one
// preallocated slice, so recording is a bounds check and a store.
type Event struct {
	TS    simtime.Time // femtoseconds of simulated time
	Arg   int64        // counter value, sequence number, or ppm slowdown
	Name  NameID
	Track TrackID
	Kind  Kind
}

// Options configures a Recorder.
type Options struct {
	// MaxEvents bounds the buffer. 0 means DefaultMaxEvents.
	MaxEvents int
	// Flight selects flight-recorder mode: when the buffer fills, the
	// oldest events are overwritten so the last MaxEvents are always
	// retained cheaply. Off (the default) the buffer stops growing and
	// further events are counted as dropped.
	Flight bool
}

// DefaultMaxEvents is the buffer cap when Options.MaxEvents is 0.
const DefaultMaxEvents = 1 << 20

// Recorder captures events into a preallocated ring. It is not safe for
// concurrent use; the simulator is single-goroutine and so is its tracer.
type Recorder struct {
	flight    bool
	max       int
	events    []Event
	head      int // next overwrite position once the ring is full (flight)
	dropped   uint64
	triggered bool

	procs  []string
	tracks []trackInfo
	names  []string
}

type trackInfo struct {
	proc    int
	name    string
	counter bool
}

// NewRecorder returns a Recorder. Small buffers (flight rings) are
// preallocated to their full cap so recording never reallocates; large
// caps start at 4096 events and grow geometrically up to the cap, never
// beyond.
func NewRecorder(o Options) *Recorder {
	max := o.MaxEvents
	if max <= 0 {
		max = DefaultMaxEvents
	}
	initial := 4096
	if initial > max {
		initial = max
	}
	return &Recorder{
		flight: o.Flight,
		max:    max,
		events: make([]Event, 0, initial),
	}
}

// Flight reports whether the recorder is in flight-recorder mode.
func (r *Recorder) Flight() bool { return r.flight }

// RegisterTrack adds a timeline row under the named process and returns
// its ID. Counter tracks render as Perfetto counter tracks; others as
// threads. Call during setup, not on the hot path.
func (r *Recorder) RegisterTrack(process, name string, counter bool) TrackID {
	proc := -1
	for i, p := range r.procs {
		if p == process {
			proc = i
			break
		}
	}
	if proc < 0 {
		proc = len(r.procs)
		r.procs = append(r.procs, process)
	}
	r.tracks = append(r.tracks, trackInfo{proc: proc, name: name, counter: counter})
	return TrackID(len(r.tracks) - 1)
}

// InternName registers an event name and returns its ID. Call during
// setup, not on the hot path.
func (r *Recorder) InternName(s string) NameID {
	for i, n := range r.names {
		if n == s {
			return NameID(i)
		}
	}
	r.names = append(r.names, s)
	return NameID(len(r.names) - 1)
}

// Record appends one event. In flight mode a full ring overwrites the
// oldest event; otherwise a full buffer counts drops.
func (r *Recorder) Record(ts simtime.Time, kind Kind, track TrackID, name NameID, arg int64) {
	if len(r.events) < r.max {
		r.events = append(r.events, Event{TS: ts, Arg: arg, Name: name, Track: track, Kind: kind})
		return
	}
	if !r.flight {
		r.dropped++
		return
	}
	r.events[r.head] = Event{TS: ts, Arg: arg, Name: name, Track: track, Kind: kind}
	r.head++
	if r.head == r.max {
		r.head = 0
	}
	r.dropped++ // in flight mode: count of overwritten events
}

// Len is the number of retained events.
func (r *Recorder) Len() int { return len(r.events) }

// Dropped is the number of events lost to the cap (full mode) or
// overwritten (flight mode).
func (r *Recorder) Dropped() uint64 { return r.dropped }

// MarkTriggered flags the recorder for an on-demand dump — for example
// when a stall exceeded the configured threshold. Front ends check
// Triggered after a run to decide whether to write the flight buffer.
func (r *Recorder) MarkTriggered() { r.triggered = true }

// Triggered reports whether MarkTriggered was called.
func (r *Recorder) Triggered() bool { return r.triggered }

// Events returns the retained events in record order (unwrapping the
// flight ring). The returned slice aliases internal storage in full mode.
func (r *Recorder) Events() []Event {
	older, newer := r.ordered()
	if len(newer) == 0 {
		return older
	}
	out := make([]Event, 0, len(r.events))
	out = append(out, older...)
	return append(out, newer...)
}

// ordered returns the retained events in record order as two slices of
// internal storage: a wrapped flight ring's older and newer halves, or
// every event and nil.
func (r *Recorder) ordered() (older, newer []Event) {
	if !r.flight || len(r.events) < r.max || r.head == 0 {
		return r.events, nil
	}
	return r.events[r.head:], r.events[:r.head]
}

// Reset empties the recorder for another run and keeps its storage: its
// events, tracks, names, drop count and trigger flag are cleared.
func (r *Recorder) Reset() {
	r.events = r.events[:0]
	r.head, r.dropped, r.triggered = 0, 0, false
	r.procs, r.tracks, r.names = r.procs[:0], r.tracks[:0], r.names[:0]
}

// TrackName returns the registered name of a track, for tests and for
// converting sim events to fleet spans.
func (r *Recorder) TrackName(id TrackID) string {
	if int(id) >= len(r.tracks) {
		return ""
	}
	return r.tracks[id].name
}

// EventName returns the interned string of a name ID.
func (r *Recorder) EventName(id NameID) string {
	if int(id) >= len(r.names) {
		return ""
	}
	return r.names[id]
}
