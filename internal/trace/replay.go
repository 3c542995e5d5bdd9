package trace

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"

	"galsim/internal/isa"
	"galsim/internal/workload"
)

// Trace is a fully loaded, validated trace held in memory in its compact
// encoded form (~8 bytes per instruction); replay decodes it on the fly.
type Trace struct {
	Meta Meta
	// Stats summarizes the record stream (gathered by the Load-time
	// validation scan).
	Stats ScanStats

	raw []byte // the complete encoded file
}

// ScanStats summarizes a trace's record stream.
type ScanStats struct {
	Records      uint64
	Instrs       uint64 // correct-path instructions
	WrongPath    uint64 // wrong-path instructions
	Excursions   uint64 // wrong-path excursion count
	Branches     uint64 // correct-path branches
	BranchTaken  uint64 // taken correct-path branches
	MemOps       uint64 // correct-path loads + stores
	ByClass      [isa.NumClasses]uint64
	MinPC, MaxPC uint64
}

// Scan decodes an entire record stream, accumulating summary statistics.
// It is Load's validation pass and the galsim-trace CLI's stats source.
func Scan(r *Reader) (ScanStats, error) {
	var s ScanStats
	s.MinPC = ^uint64(0)
	for {
		rec, err := r.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return s, err
		}
		s.Records++
		switch rec.Kind {
		case KindStartWrongPath:
			s.Excursions++
		case KindInstr:
			if rec.PC < s.MinPC {
				s.MinPC = rec.PC
			}
			if rec.PC > s.MaxPC {
				s.MaxPC = rec.PC
			}
			if rec.WrongPath {
				s.WrongPath++
				continue
			}
			s.Instrs++
			s.ByClass[rec.Class]++
			switch {
			case rec.Class == isa.ClassBranch:
				s.Branches++
				if rec.Taken {
					s.BranchTaken++
				}
			case rec.Class.IsMem():
				s.MemOps++
			}
		}
	}
	if s.Instrs == 0 {
		s.MinPC = 0
	}
	return s, nil
}

// Load reads and fully validates a trace file: the header parses, every
// record decodes, and the stream contains at least one correct-path
// instruction (a replay must have something to fetch).
func Load(path string) (*Trace, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Parse(raw)
}

// Digest returns the trace's hex SHA-256 content address.
func (t *Trace) Digest() string {
	sum := sha256.Sum256(t.raw)
	return hex.EncodeToString(sum[:])
}

// Parse validates an in-memory encoded trace.
func Parse(raw []byte) (*Trace, error) {
	r, err := NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	stats, err := Scan(r)
	if err != nil {
		return nil, err
	}
	if stats.Instrs == 0 {
		return nil, fmt.Errorf("trace: no correct-path instructions; nothing to replay")
	}
	return &Trace{Meta: r.Meta(), Stats: stats, raw: raw}, nil
}

// synthPCStep spaces synthetic wrong-path instructions like real code.
const synthPCStep = 4

// ReplaySource replays a loaded trace as a workload.InstrSource. Driving an
// identically configured machine, the replay reproduces the recorded run
// exactly: the pipeline's calls arrive in the same order the recorder
// logged them, so the source just steps through the record stream.
//
// Two tolerance mechanisms make replay robust on a *different* machine
// configuration, where the pipeline's wrong-path demand can diverge from
// the recording:
//
//   - The correct-path walk skips unconsumed wrong-path records (the replay
//     machine mispredicted less, or resolved faster, than the recording).
//   - An exhausted or missing excursion switches to synthesized wrong-path
//     filler (plain ALU ops at advancing PCs) until the redirect arrives —
//     junk fetch, exactly what real hardware executes past a misprediction.
//
// When the stream runs out of correct-path instructions, the replay wraps
// to the beginning, so a short trace can drive an arbitrarily long run.
type ReplaySource struct {
	t   *Trace
	r   *Reader
	buf []Record // decoded-but-undelivered lookahead

	pool *isa.Pool // optional instruction arena (see workload.PoolUser)

	inWP    bool
	synth   bool
	synthPC uint64
	wpNext  uint64 // the pc the recorded source would fetch next in-excursion

	served    uint64 // correct-path instructions delivered
	wrapped   uint64 // times the stream restarted
	discarded uint64 // records consumed since the last rewind (snapshot position)
}

var (
	_ workload.InstrSource = (*ReplaySource)(nil)
	_ workload.PoolUser    = (*ReplaySource)(nil)
)

// UsePool implements workload.PoolUser: subsequent instructions are
// allocated from p (nil reverts to the heap).
func (s *ReplaySource) UsePool(p *isa.Pool) bool {
	s.pool = p
	return true
}

// newInstr allocates one blank instruction record, from the arena when one
// is installed.
func (s *ReplaySource) newInstr(pc uint64, class isa.Class) *isa.Instr {
	if s.pool != nil {
		return s.pool.Get(0, pc, class)
	}
	return isa.NewInstr(0, pc, class)
}

// NewReplaySource starts a replay of the trace from its beginning.
func NewReplaySource(t *Trace) *ReplaySource {
	s := &ReplaySource{t: t}
	s.rewind()
	return s
}

// rewind restarts the record stream.
func (s *ReplaySource) rewind() {
	r, err := NewReader(bytes.NewReader(s.t.raw))
	if err != nil {
		// The trace was fully validated at Load; a header that no longer
		// parses means memory corruption, not input error.
		panic(fmt.Sprintf("trace: validated trace failed to reopen: %v", err))
	}
	s.r = r
	s.buf = s.buf[:0]
	s.discarded = 0
}

// peekAt returns the i-th undelivered record (0 = next), decoding ahead as
// needed, or false past end of stream. Peeking never discards records: a
// lookahead past stale wrong-path content must not eat the excursion
// boundaries a later StartWrongPath call will want.
func (s *ReplaySource) peekAt(i int) (*Record, bool) {
	for len(s.buf) <= i {
		rec, err := s.r.Next()
		if err != nil {
			return nil, false // io.EOF; other errors impossible post-validation
		}
		s.buf = append(s.buf, rec)
	}
	return &s.buf[i], true
}

// pop delivers the front record.
func (s *ReplaySource) pop() Record {
	rec, ok := s.peekAt(0)
	if !ok {
		panic("trace: pop past end of stream")
	}
	out := *rec
	s.buf = s.buf[1:]
	s.discarded++
	return out
}

// findCorrectPath locates the next correct-path instruction record, looking
// past stale wrong-path content without discarding it, and wrapping at end
// of stream. It returns the record and its lookahead index.
func (s *ReplaySource) findCorrectPath() (*Record, int) {
	for {
		for i := 0; ; i++ {
			rec, ok := s.peekAt(i)
			if !ok {
				break
			}
			if rec.Kind == KindInstr && !rec.WrongPath {
				return rec, i
			}
		}
		// No correct-path instruction left: drop the stale tail and wrap.
		// Load-time validation guarantees the stream has at least one.
		s.rewind()
		s.wrapped++
	}
}

// Next produces the next correct-path instruction, discarding any stale
// wrong-path records (excursions the replaying machine never entered) that
// precede it.
func (s *ReplaySource) Next() *isa.Instr {
	if s.inWP {
		panic("trace: Next called while in wrong-path mode")
	}
	rec, i := s.findCorrectPath()
	in := s.newInstr(rec.PC, rec.Class)
	rec.fillInstr(in)
	s.buf = s.buf[i+1:]
	s.discarded += uint64(i + 1)
	s.served++
	return in
}

// StartWrongPath enters wrong-path mode. If the stream's next record is the
// matching excursion start (the exact-replay case) it is consumed and the
// recorded excursion is served; otherwise the source synthesizes filler.
func (s *ReplaySource) StartWrongPath(target uint64) {
	if s.inWP {
		panic("trace: StartWrongPath while already in wrong-path mode")
	}
	s.inWP = true
	if rec, ok := s.peekAt(0); ok && rec.Kind == KindStartWrongPath {
		s.wpNext = rec.Target // the recorded source's normalized entry pc
		s.synth = false
		s.pop()
		return
	}
	s.synth = true
	s.synthPC = target &^ 3
}

// NextWrongPath produces the next wrong-path instruction: the recorded one
// when available, synthesized filler once the recorded excursion runs dry.
func (s *ReplaySource) NextWrongPath() *isa.Instr {
	if !s.inWP {
		panic("trace: NextWrongPath outside wrong-path mode")
	}
	if !s.synth {
		if rec, ok := s.peekAt(0); ok && rec.Kind == KindInstr && rec.WrongPath {
			in := s.newInstr(rec.PC, rec.Class)
			rec.fillInstr(in)
			s.pop()
			s.wpNext = in.PC + synthPCStep
			if in.Class == isa.ClassBranch && in.Taken {
				s.wpNext = in.Target
			}
			return in
		}
		// Recorded excursion exhausted (the replay machine resolves the
		// branch later than the recording did). Continue from where the
		// recorded walk stood: the end marker's pending pc when present.
		s.synth = true
		s.synthPC = s.wpNext
		if rec, ok := s.peekAt(0); ok && rec.Kind == KindEndWrongPath {
			s.synthPC = rec.Target
		}
	}
	in := s.newInstr(s.synthPC, isa.ClassIntALU)
	in.WrongPath = true
	s.synthPC += synthPCStep
	return in
}

// EndWrongPath leaves wrong-path mode, consuming through the recorded
// excursion's end marker when one is pending.
func (s *ReplaySource) EndWrongPath() {
	if !s.inWP {
		panic("trace: EndWrongPath outside wrong-path mode")
	}
	s.inWP = false
	if s.synth {
		s.synth = false
		return
	}
	// Skip the excursion's unconsumed tail. Stop without consuming if a
	// correct-path instruction or a new excursion start appears first (a
	// recording that ended mid-excursion has no end marker).
	for {
		rec, ok := s.peekAt(0)
		if !ok {
			return
		}
		switch {
		case rec.Kind == KindEndWrongPath:
			s.pop()
			return
		case rec.Kind == KindInstr && rec.WrongPath:
			s.pop()
		default:
			return
		}
	}
}

// InWrongPath reports whether the source is in wrong-path mode.
func (s *ReplaySource) InWrongPath() bool { return s.inWP }

// CurrentPC returns the address the next produce call will deliver. While
// the front end stalls past the last recorded wrong-path instruction, the
// end marker's pending pc reproduces exactly what the recorded source
// reported (this is what keeps replayed I-cache behaviour bit-identical).
func (s *ReplaySource) CurrentPC() uint64 {
	if s.inWP {
		if s.synth {
			return s.synthPC
		}
		if rec, ok := s.peekAt(0); ok {
			switch {
			case rec.Kind == KindInstr && rec.WrongPath:
				return rec.PC
			case rec.Kind == KindEndWrongPath:
				return rec.Target
			}
		}
		return s.wpNext
	}
	rec, _ := s.findCorrectPath()
	return rec.PC
}

// String implements fmt.Stringer.
func (s *ReplaySource) String() string {
	return fmt.Sprintf("trace replay %s: %d/%d instrs served, %d wraps",
		s.t.Meta.Name, s.served, s.t.Stats.Instrs, s.wrapped)
}
