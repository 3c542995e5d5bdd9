package fifo

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"galsim/internal/clock"
	"galsim/internal/isa"
	"galsim/internal/simtime"
	"galsim/internal/snapshot"
)

// linkKinds builds one link per constructor over a fresh pair of clocks.
var linkKinds = map[string]func() *Link[int]{
	"latch": func() *Link[int] {
		return NewSyncLatch[int]("l", clock.NewDomain("c", ns, 0, 1.65), 4)
	},
	"mixed": func() *Link[int] {
		p := clock.NewDomain("p", ns, 0, 1.65)
		c := clock.NewDomain("c", 1300*simtime.Picosecond, 400*simtime.Picosecond, 1.65)
		return NewMixedClockFIFO[int]("m", p, c, 4, 2)
	},
	"stretch": func() *Link[int] {
		p, c := stretchPair()
		return NewStretchLink[int]("s", p, c, 1500*simtime.Picosecond, 3)
	},
}

// drive runs ops random Put/Get/flush steps at advancing, unevenly spaced
// times and returns what the link answered.
func drive(l *Link[int], rng *rand.Rand, now *simtime.Time, seq *isa.Seq, ops int) []any {
	var log []any
	for i := 0; i < ops; i++ {
		*now += simtime.Time(rng.Intn(900)+1) * simtime.Picosecond
		switch x := rng.Intn(10); {
		case x < 5:
			ok := l.CanPut(*now)
			log = append(log, ok)
			if ok {
				l.Put(*now, *seq, int(*seq))
				*seq++
			}
		case x < 9:
			item, wait, ok := l.Get(*now)
			log = append(log, item, wait, ok)
		default:
			log = append(log, l.FlushYoungerThan(*seq-isa.Seq(rng.Intn(3))))
		}
	}
	return log
}

// captureLink returns a link's snapshot section.
func captureLink(l *Link[int]) []byte {
	e := snapshot.NewEncoder(nil)
	AppendLink(e, l, func(v int) { e.Int(v) })
	return e.Bytes()
}

// restoreLink reads a section captureLink returned into l.
func restoreLink(l *Link[int], st []byte) error {
	d := snapshot.NewDecoder(st)
	RestoreLink(d, l, d.Int)
	return d.Finish()
}

// A link restored from a capture behaves exactly as the captured one.
func TestLinkSnapshotRoundTrip(t *testing.T) {
	for kind, build := range linkKinds {
		for seed := int64(0); seed < 20; seed++ {
			rng := rand.New(rand.NewSource(seed))
			orig := build()
			now, seq := simtime.Time(0), isa.Seq(1)
			drive(orig, rng, &now, &seq, 40)

			st := captureLink(orig)
			restored := build()
			if err := restoreLink(restored, st); err != nil {
				t.Fatalf("%s seed %d: %v", kind, seed, err)
			}
			if got := captureLink(restored); !bytes.Equal(got, st) {
				t.Fatalf("%s seed %d: recapture = %x, want %x", kind, seed, got, st)
			}
			rngA, rngB := rand.New(rand.NewSource(seed+100)), rand.New(rand.NewSource(seed+100))
			nowA, seqA := now, seq
			a := drive(orig, rngA, &nowA, &seqA, 60)
			b := drive(restored, rngB, &now, &seq, 60)
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("%s seed %d: restored link diverged:\n got %v\nwant %v", kind, seed, b, a)
			}
			if orig.Stats() != restored.Stats() {
				t.Fatalf("%s seed %d: stats %+v, want %+v", kind, seed, restored.Stats(), orig.Stats())
			}
		}
	}
}

func TestRestoreIntoNonEmptyLinkFails(t *testing.T) {
	empty := captureLink(linkKinds["latch"]())
	l := linkKinds["latch"]()
	l.Put(0, 1, 1)
	if err := restoreLink(l, empty); err == nil {
		t.Error("restore into a non-empty link succeeded")
	}
}

// BenchmarkLink times one cycle of a link streaming at its steady rate, per
// timing rule: a Get when an item is visible, then a Put when there is
// room, both at the cycle's edge.
func BenchmarkLink(b *testing.B) {
	for _, kind := range []string{"latch", "mixed", "stretch"} {
		b.Run(kind, func(b *testing.B) {
			l := linkKinds[kind]()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				now := simtime.Time(i) * ns
				if l.CanGet(now) {
					l.Get(now)
				}
				if l.CanPut(now) {
					l.Put(now, isa.Seq(i), i)
				}
			}
		})
	}
}
