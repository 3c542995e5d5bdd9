// Package fifo implements the communication fabric between pipeline stages:
// the synchronous pipe stages of the base processor and the mixed-clock
// asynchronous FIFOs (after Chelcea & Nowick) that replace them between
// clock domains in the GALS processor (paper §3.2, Figure 2).
//
// One concrete type, Link, carries every kind of channel: its timing rule —
// a same-clock pipe latch, a mixed-clock FIFO or a stretchable-clock
// handshake (stretch.go) — is fixed by the constructor that built it. The
// pipeline is therefore wired identically for the two machines and only the
// choice of constructor differs — exactly the paper's methodology ("in the
// synchronous version, communication between successive logic blocks is
// done using regular pipe stages; in the GALS model, asynchronous FIFOs have
// been used").
//
// Synchronization model. The Chelcea–Nowick FIFO exposes an empty flag
// synchronized into the consumer's clock and a full flag synchronized into
// the producer's clock, each through a two-flop synchronizer. We model that
// as visibility latency:
//
//   - an item enqueued at time t can first be observed (and dequeued) by
//     the consumer at the SyncEdges-th consumer clock edge strictly after t;
//   - the space freed by a dequeue at time t can first be observed by the
//     producer at the SyncEdges-th producer clock edge strictly after t.
//
// With SyncEdges = 2 (the default, a two-flop synchronizer) a crossing costs
// between one and two consumer cycles depending on clock alignment — low
// latency and full throughput in the steady state, matching the behaviour
// the paper reports for this design, while still charging the latency that
// produces the GALS performance gap.
//
// Squash. When a branch misprediction is repaired, in-flight wrong-path
// entries must be discarded. FlushYoungerThan removes every entry younger
// than a sequence number. Space freed by a flush is made visible to the
// producer immediately: in hardware the squash signal resets the FIFO
// pointers, and the producer is itself stalled/redirected during recovery,
// so modeling an extra synchronizer delay here would change nothing
// observable.
package fifo

import (
	"fmt"

	"galsim/internal/clock"
	"galsim/internal/isa"
	"galsim/internal/simtime"
)

// rule is a link's timing rule, fixed at construction.
type rule uint8

const (
	ruleLatch   rule = iota // NewSyncLatch
	ruleMixed               // NewMixedClockFIFO
	ruleStretch             // NewStretchLink
)

// Link is a unidirectional, capacity-bounded, order-preserving channel
// between two pipeline stages. A Link is not safe for concurrent use; the
// simulator is single-threaded.
//
// Storage is a ring buffer sized to the link's rated capacity at
// construction. Hardware FIFOs are circular buffers of a configured depth,
// and modeling them the same way makes the per-item path allocation- and
// copy-free: a dequeue advances the head index instead of shifting the
// slice, and in steady state the backing array never grows. (The backing
// array can exceed the rated capacity: a stretch link admits a new
// transaction while older items await visibility, so its physical occupancy
// is not bounded by cap; push grows the ring on demand and the occupancy
// soon restabilizes.)
type Link[T any] struct {
	name  string
	rule  rule
	cap   int        // rated capacity (the CanPut bound; a stretch link's width)
	buf   []entry[T] // backing ring; len(buf) >= cap
	head  int        // index of the oldest entry
	n     int        // occupancy
	stats Stats

	// producer and consumer are the two ends' clocks; a latch has one
	// clock, held in both.
	producer *clock.Domain
	consumer *clock.Domain

	// Mixed-clock FIFO: syncEdges is the flag synchronizer depth; freeAt
	// holds, for each dequeue not yet visible to the producer, the
	// producer-clock time at which the freed slot becomes visible.
	syncEdges int64
	freeAt    []simtime.Time

	// Stretch link: the handshake length, the end of the open transaction
	// and the items it carries so far.
	handshake simtime.Duration
	busyUntil simtime.Time
	inFlight  int
}

// Stats counts link activity; the power model charges energy per Put/Get
// and the slip analysis aggregates TotalWait.
type Stats struct {
	Puts      uint64
	Gets      uint64
	Flushed   uint64
	TotalWait simtime.Duration // summed over all Gets
	// OccupancySum accumulates Len() sampled at each Put and Get, for a
	// cheap occupancy estimate: OccupancySum / (Puts+Gets).
	OccupancySum uint64
}

type entry[T any] struct {
	item      T
	seq       isa.Seq
	enqueued  simtime.Time
	visibleAt simtime.Time
}

func newLink[T any](name string, r rule, capacity int, producer, consumer *clock.Domain) *Link[T] {
	return &Link[T]{name: name, rule: r, cap: capacity, buf: make([]entry[T], capacity),
		producer: producer, consumer: consumer}
}

// NewSyncLatch builds the base machine's link: a clocked pipe-stage queue of
// the given capacity on clk. An item written at one clock edge is readable
// at the next edge of the same clock; occupancy is visible to the producer
// immediately (same-clock full logic).
func NewSyncLatch[T any](name string, clk *clock.Domain, capacity int) *Link[T] {
	if capacity <= 0 {
		panic(fmt.Sprintf("fifo: latch %q capacity %d must be positive", name, capacity))
	}
	return newLink[T](name, ruleLatch, capacity, clk, clk)
}

// NewMixedClockFIFO builds the GALS machine's link: a Chelcea–Nowick style
// mixed-timing FIFO with synchronized full/empty flags between the
// producer's and consumer's clock domains. syncEdges is the depth of the
// flag synchronizers in destination-clock edges (2 = two-flop, the default
// used by the paper's experiments; 1 models an aggressive single-flop
// design).
func NewMixedClockFIFO[T any](name string, producer, consumer *clock.Domain, capacity, syncEdges int) *Link[T] {
	if capacity <= 0 {
		panic(fmt.Sprintf("fifo: fifo %q capacity %d must be positive", name, capacity))
	}
	if syncEdges < 1 {
		panic(fmt.Sprintf("fifo: fifo %q syncEdges %d must be >= 1", name, syncEdges))
	}
	if producer == nil || consumer == nil {
		panic(fmt.Sprintf("fifo: fifo %q requires both clock domains", name))
	}
	l := newLink[T](name, ruleMixed, capacity, producer, consumer)
	l.syncEdges = int64(syncEdges)
	return l
}

// Name returns the link's diagnostic name.
func (l *Link[T]) Name() string { return l.name }

// Len returns the number of physically present entries (independent of
// synchronized visibility).
func (l *Link[T]) Len() int { return l.n }

// Stats returns the link's activity counters.
func (l *Link[T]) Stats() Stats { return l.stats }

// CanPut reports whether the producer, observing at time now, sees room for
// one more item.
func (l *Link[T]) CanPut(now simtime.Time) bool {
	switch l.rule {
	case ruleMixed:
		return l.perceivedLen(now) < l.cap
	case ruleStretch:
		// A new item may join the current transaction if the channel is
		// idle or the in-progress transaction still has width left.
		if now < l.busyUntil {
			return l.inFlight > 0 && l.inFlight < l.cap
		}
	}
	return l.n < l.cap
}

// Put enqueues an item carrying the given sequence number. It panics if
// CanPut(now) is false — producers must check first, as hardware does.
func (l *Link[T]) Put(now simtime.Time, seq isa.Seq, item T) {
	if !l.CanPut(now) {
		panic(fmt.Sprintf("fifo: link %q full at %v", l.name, now))
	}
	var visibleAt simtime.Time
	switch l.rule {
	case ruleLatch:
		visibleAt = l.consumer.EdgeAfter(now)
	case ruleMixed:
		visibleAt = l.consumer.NthEdgeAfter(now, l.syncEdges)
	case ruleStretch:
		visibleAt = l.stretchVisibleAt(now)
	}
	l.push(entry[T]{item: item, seq: seq, enqueued: now, visibleAt: visibleAt})
}

// CanGet reports whether the consumer, observing at time now, sees at least
// one item.
func (l *Link[T]) CanGet(now simtime.Time) bool {
	return l.n > 0 && l.buf[l.head].visibleAt <= now
}

// Peek returns the head item without removing it; ok is false when
// CanGet(now) is false.
func (l *Link[T]) Peek(now simtime.Time) (item T, ok bool) {
	if !l.CanGet(now) {
		return item, false
	}
	return l.buf[l.head].item, true
}

// Get removes and returns the head item. wait is the time the item spent in
// the link (now − enqueue time); ok is false when CanGet(now) is false.
func (l *Link[T]) Get(now simtime.Time) (item T, wait simtime.Duration, ok bool) {
	if !l.CanGet(now) {
		return item, 0, false
	}
	e := &l.buf[l.head]
	item = e.item
	wait = now - e.enqueued
	*e = entry[T]{} // do not pin the payload
	l.head++
	if l.head == len(l.buf) {
		l.head = 0
	}
	l.n--
	l.stats.Gets++
	l.stats.TotalWait += wait
	l.stats.OccupancySum += uint64(l.n)
	if l.rule == ruleMixed {
		l.freeAt = append(l.freeAt, l.producer.NthEdgeAfter(now, l.syncEdges))
	}
	return item, wait, true
}

// FlushMatching discards every entry whose payload matches the predicate and
// returns the number discarded. Squash logic uses this with a wrong-path
// predicate, since post-recovery correct-path entries can carry sequence
// numbers above the squashing branch's.
func (l *Link[T]) FlushMatching(doomed func(T) bool) int {
	return l.flush(func(e *entry[T]) bool { return doomed(e.item) })
}

// slot maps a logical position (0 = head) to a buffer index.
func (l *Link[T]) slot(i int) int {
	i += l.head
	if i >= len(l.buf) {
		i -= len(l.buf)
	}
	return i
}

func (l *Link[T]) push(e entry[T]) {
	if l.n == len(l.buf) {
		l.grow()
	}
	l.buf[l.slot(l.n)] = e
	l.n++
	l.stats.Puts++
	l.stats.OccupancySum += uint64(l.n)
}

// grow doubles the backing ring, relinearizing entries so head returns to
// index 0. Only reachable through links whose physical occupancy can exceed
// the rated capacity (see the Link comment).
func (l *Link[T]) grow() {
	nb := make([]entry[T], 2*len(l.buf))
	for i := 0; i < l.n; i++ {
		nb[i] = l.buf[l.slot(i)]
	}
	l.buf = nb
	l.head = 0
}

// flush compacts survivors toward the head in order. The write position
// never passes the read position, so the in-place ring compaction is safe;
// vacated tail slots are zeroed so flushed payloads do not pin memory.
//
// Space freed by a flush is visible to the producer immediately (pointer
// reset; see the package comment), and a stretch link left empty drops its
// open transaction.
func (l *Link[T]) flush(doomed func(*entry[T]) bool) int {
	kept := 0
	for i := 0; i < l.n; i++ {
		e := &l.buf[l.slot(i)]
		if doomed(e) {
			continue
		}
		if w := l.slot(kept); w != l.slot(i) {
			l.buf[w] = *e
		}
		kept++
	}
	flushed := l.n - kept
	for i := kept; i < l.n; i++ {
		l.buf[l.slot(i)] = entry[T]{}
	}
	l.n = kept
	l.stats.Flushed += uint64(flushed)
	if l.rule == ruleStretch && l.n == 0 {
		l.busyUntil = 0
		l.inFlight = 0
	}
	return flushed
}

// perceivedLen returns a mixed-clock FIFO's occupancy as the producer sees
// it at time now: physically present entries plus freed slots whose release
// has not yet crossed the full-flag synchronizer.
func (l *Link[T]) perceivedLen(now simtime.Time) int {
	if len(l.freeAt) == 0 {
		return l.n
	}
	// Prune frees that have become visible.
	kept := l.freeAt[:0]
	for _, t := range l.freeAt {
		if t > now {
			kept = append(kept, t)
		}
	}
	l.freeAt = kept
	return l.n + len(l.freeAt)
}
