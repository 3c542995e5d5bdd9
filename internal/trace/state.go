package trace

import (
	"galsim/internal/snapshot"
	"galsim/internal/workload"
)

var _ workload.Snapshotter = (*ReplaySource)(nil)

// AppendSourceState implements workload.Snapshotter. The stream position is
// the number of records consumed since the last rewind — the lookahead
// buffer holds only peeked-not-consumed records, which a restored source
// re-decodes on demand, so it needs no serialization.
func (s *ReplaySource) AppendSourceState(e *snapshot.Encoder) {
	e.Uvarint(s.discarded)
	e.Uvarint(s.wrapped)
	e.Uvarint(s.served)
	e.Bool(s.inWP)
	e.Bool(s.synth)
	e.Uvarint(s.synthPC)
	e.Uvarint(s.wpNext)
}

// RestoreSourceState implements workload.Snapshotter: it fast-forwards this
// freshly constructed replay (of the same trace the capture came from) to
// the captured position.
func (s *ReplaySource) RestoreSourceState(d *snapshot.Decoder) {
	if s.served != 0 || s.discarded != 0 || s.inWP {
		d.Failf("trace: restore into replay that has already served instructions")
		return
	}
	discarded, wrapped, served := d.Uvarint(), d.Uvarint(), d.Uvarint()
	inWP, synth := d.Bool(), d.Bool()
	synthPC, wpNext := d.Uvarint(), d.Uvarint()
	if d.Err() != nil {
		return
	}
	for n := uint64(0); n < discarded; n++ {
		if _, ok := s.peekAt(0); !ok {
			d.Failf("trace: restored position %d past end of stream (trace mismatch?)", discarded)
			return
		}
		s.buf = s.buf[1:]
	}
	s.discarded, s.wrapped, s.served = discarded, wrapped, served
	s.inWP, s.synth, s.synthPC, s.wpNext = inWP, synth, synthPC, wpNext
}
