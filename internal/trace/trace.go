// Package trace records and replays workload instruction streams: the
// record/replay subsystem that turns any simulation run into a portable,
// re-runnable artifact.
//
// A trace captures the exact dynamic stream an instruction source delivered
// to the pipeline front end — correct-path instructions, wrong-path
// excursion boundaries, and the wrong-path instructions fetched inside them
// — so replaying it through an identically configured machine reproduces
// the original run's results bit-for-bit, and replaying it through a
// different machine answers "what would this exact program have done
// there". Recording taps the workload.InstrSource interface (Recorder), so
// every source — built-in benchmark, user-defined phased profile, or even
// another trace — can be captured.
//
// # Format
//
// A trace is a byte stream: a fixed header followed by variable-length
// records. All integers are unsigned varints (encoding/binary); signed
// quantities are zigzag-coded. Program counters and memory addresses are
// delta-coded against the previous record's values, so the common cases
// (pc+4, sequential streams) cost one byte.
//
//	header:
//	  magic   "GTRC" (4 bytes)
//	  version byte (currently 2; version 1 is still read)
//	  uvarint committed-instruction target of the recorded run
//	  uvarint name length, name bytes (workload name)
//	  uvarint spec length, spec bytes (canonical RunSpec JSON, provenance)
//	  uvarint digest length, digest bytes (canonical machine-topology
//	          digest; version >= 2 only)
//
//	record:
//	  tag byte: bits 0-1 kind (0 instr, 1 start-wrong-path, 2 end-wrong-path)
//	            bit 2 wrong-path flag, bits 3-7 instruction class
//	  kind instr:
//	    zigzag varint pc delta (vs previous instr record)
//	    dest, src0, src1 register bytes (file in bits 5-6, index in bits 0-4)
//	    memory classes: zigzag varint address delta (vs previous memory instr)
//	    branch class:   flags byte (bit 0 = taken), zigzag varint target-pc
//	  kind start-wrong-path:
//	    uvarint wrong-path entry pc (the source's normalized fetch address)
//	  kind end-wrong-path:
//	    uvarint next wrong-path fetch pc at redirect time (what CurrentPC
//	    returned while the front end stalled past the last fetched
//	    instruction; replay must reproduce it for I-cache behaviour to
//	    match exactly)
//
// Decoding is strictly sequential (the deltas carry running state), which
// keeps both the Reader and the fuzz surface simple.
package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"

	"galsim/internal/isa"
)

// Version is the current trace format version. Version 2 added the
// machine-topology digest to the header; version 1 traces (no digest) are
// still read.
const Version = 2

var magic = [4]byte{'G', 'T', 'R', 'C'}

// Limits on header fields; traces are untrusted input.
const (
	maxNameLen   = 1 << 12
	maxSpecLen   = 1 << 20
	maxDigestLen = 128
)

// Kind discriminates trace records.
type Kind uint8

// Record kinds.
const (
	KindInstr Kind = iota
	KindStartWrongPath
	KindEndWrongPath
	numKinds
)

// Meta is the trace header.
type Meta struct {
	// Name is the recorded workload's name (benchmark or profile-spec name).
	Name string
	// Instructions is the committed-instruction target of the recording run,
	// the natural replay length.
	Instructions uint64
	// SpecJSON is the canonical RunSpec of the recording run, for provenance
	// and inspection; replay does not interpret it.
	SpecJSON []byte
	// MachineDigest is the canonical content digest of the recording run's
	// machine topology (see internal/machine). Replays that do not choose a
	// machine explicitly are checked against it, so a trace recorded on one
	// topology cannot silently replay on another. Empty in version 1 traces.
	MachineDigest string
}

// Record is one decoded trace event.
type Record struct {
	Kind      Kind
	WrongPath bool
	Class     isa.Class
	PC        uint64
	Dest      isa.Reg
	Src       [2]isa.Reg
	Addr      uint64 // memory classes only
	Taken     bool   // branch class only
	// Target is the branch target for branch instructions; for the
	// excursion boundary kinds it is the source's fetch pc — the wrong-path
	// entry pc (KindStartWrongPath) or the next wrong-path pc pending at
	// redirect time (KindEndWrongPath).
	Target uint64
}

// Instr materializes a fresh pipeline instruction from an instr record.
func (r Record) Instr() *isa.Instr {
	in := isa.NewInstr(0, r.PC, r.Class)
	r.fillInstr(in)
	return in
}

// fillInstr copies the record's payload onto a freshly initialized
// instruction (heap- or arena-allocated).
func (r Record) fillInstr(in *isa.Instr) {
	in.Dest = r.Dest
	in.Src = r.Src
	in.Addr = r.Addr
	in.Taken = r.Taken
	in.Target = r.Target
	in.WrongPath = r.WrongPath
}

func zigzag(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// regByte encodes a register name in one byte.
func regByte(r isa.Reg) (byte, error) {
	if r.File > isa.RegFP || r.Index >= 32 {
		return 0, fmt.Errorf("trace: unencodable register %v", r)
	}
	return byte(r.File)<<5 | r.Index, nil
}

// decodeReg is regByte's inverse.
func decodeReg(b byte) (isa.Reg, error) {
	file, index := isa.RegFile(b>>5), b&0x1F
	if file > isa.RegFP {
		return isa.Reg{}, fmt.Errorf("trace: bad register byte %#x", b)
	}
	if file == isa.RegNone && index != 0 {
		return isa.Reg{}, fmt.Errorf("trace: bad register byte %#x", b)
	}
	return isa.Reg{File: file, Index: index}, nil
}

// Writer encodes trace records onto an io.Writer. Errors are sticky: the
// first failure is remembered and every later call is a no-op, so the
// per-instruction hot path need not check anything; callers observe the
// outcome once, at Flush.
type Writer struct {
	w        *bufio.Writer
	err      error
	prevPC   uint64
	prevAddr uint64
	buf      []byte
}

// NewWriter writes the header and returns an encoder for the record stream.
func NewWriter(w io.Writer, meta Meta) (*Writer, error) {
	if len(meta.Name) > maxNameLen {
		return nil, fmt.Errorf("trace: workload name of %d bytes exceeds the %d limit", len(meta.Name), maxNameLen)
	}
	if len(meta.SpecJSON) > maxSpecLen {
		return nil, fmt.Errorf("trace: spec of %d bytes exceeds the %d limit", len(meta.SpecJSON), maxSpecLen)
	}
	if len(meta.MachineDigest) > maxDigestLen {
		return nil, fmt.Errorf("trace: machine digest of %d bytes exceeds the %d limit", len(meta.MachineDigest), maxDigestLen)
	}
	tw := &Writer{w: bufio.NewWriter(w), buf: make([]byte, 0, 64)}
	tw.w.Write(magic[:])    //nolint:errcheck // sticky via Flush
	tw.w.WriteByte(Version) //nolint:errcheck
	tw.uvarint(meta.Instructions)
	tw.uvarint(uint64(len(meta.Name)))
	tw.w.WriteString(meta.Name) //nolint:errcheck
	tw.uvarint(uint64(len(meta.SpecJSON)))
	tw.w.Write(meta.SpecJSON) //nolint:errcheck
	tw.uvarint(uint64(len(meta.MachineDigest)))
	tw.w.WriteString(meta.MachineDigest) //nolint:errcheck
	if err := tw.w.Flush(); err != nil {
		return nil, fmt.Errorf("trace: writing header: %w", err)
	}
	return tw, nil
}

func (w *Writer) uvarint(v uint64) {
	w.buf = binary.AppendUvarint(w.buf[:0], v)
	w.w.Write(w.buf) //nolint:errcheck // sticky via Flush
}

// Instr appends one instruction record.
func (w *Writer) Instr(in *isa.Instr) {
	if w.err != nil {
		return
	}
	tag := byte(KindInstr) | byte(in.Class)<<3
	if in.WrongPath {
		tag |= 1 << 2
	}
	w.w.WriteByte(tag) //nolint:errcheck
	w.uvarint(zigzag(int64(in.PC - w.prevPC)))
	w.prevPC = in.PC
	for _, r := range []isa.Reg{in.Dest, in.Src[0], in.Src[1]} {
		b, err := regByte(r)
		if err != nil {
			w.err = err
			return
		}
		w.w.WriteByte(b) //nolint:errcheck
	}
	if in.Class.IsMem() {
		w.uvarint(zigzag(int64(in.Addr - w.prevAddr)))
		w.prevAddr = in.Addr
	}
	if in.Class == isa.ClassBranch {
		var flags byte
		if in.Taken {
			flags |= 1
		}
		w.w.WriteByte(flags) //nolint:errcheck
		w.uvarint(zigzag(int64(in.Target - in.PC)))
	}
}

// StartWrongPath appends an excursion-start record carrying the source's
// normalized wrong-path entry pc.
func (w *Writer) StartWrongPath(entryPC uint64) {
	if w.err != nil {
		return
	}
	w.w.WriteByte(byte(KindStartWrongPath)) //nolint:errcheck
	w.uvarint(entryPC)
}

// EndWrongPath appends an excursion-end record carrying the wrong-path
// fetch pc that was pending when the redirect arrived.
func (w *Writer) EndWrongPath(nextPC uint64) {
	if w.err != nil {
		return
	}
	w.w.WriteByte(byte(KindEndWrongPath)) //nolint:errcheck
	w.uvarint(nextPC)
}

// Flush drains buffered records and reports the first error encountered
// anywhere in the stream's life.
func (w *Writer) Flush() error {
	if w.err != nil {
		return w.err
	}
	w.err = w.w.Flush()
	return w.err
}

// Reader decodes a trace stream sequentially: NewReader parses the header,
// Next returns records until io.EOF. Any malformed input yields an error,
// never a panic — traces are untrusted bytes.
type Reader struct {
	r        *bufio.Reader
	meta     Meta
	prevPC   uint64
	prevAddr uint64
}

// NewReader parses the header of a trace stream.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReader(r)
	var m [4]byte
	if _, err := io.ReadFull(br, m[:]); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", noEOF(err))
	}
	if m != magic {
		return nil, fmt.Errorf("trace: bad magic %q (not a trace file)", m)
	}
	ver, err := br.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("trace: reading version: %w", noEOF(err))
	}
	if ver < 1 || ver > Version {
		return nil, fmt.Errorf("trace: unsupported version %d (want 1..%d)", ver, Version)
	}
	tr := &Reader{r: br}
	if tr.meta.Instructions, err = binary.ReadUvarint(br); err != nil {
		return nil, fmt.Errorf("trace: reading instruction count: %w", noEOF(err))
	}
	name, err := readBlock(br, maxNameLen, "workload name")
	if err != nil {
		return nil, err
	}
	tr.meta.Name = string(name)
	if tr.meta.SpecJSON, err = readBlock(br, maxSpecLen, "spec"); err != nil {
		return nil, err
	}
	if ver >= 2 {
		digest, err := readBlock(br, maxDigestLen, "machine digest")
		if err != nil {
			return nil, err
		}
		tr.meta.MachineDigest = string(digest)
	}
	return tr, nil
}

// readBlock reads a length-prefixed byte block with a size cap.
func readBlock(br *bufio.Reader, maxLen int, what string) ([]byte, error) {
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("trace: reading %s length: %w", what, noEOF(err))
	}
	if n > uint64(maxLen) {
		return nil, fmt.Errorf("trace: %s of %d bytes exceeds the %d limit", what, n, maxLen)
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(br, b); err != nil {
		return nil, fmt.Errorf("trace: reading %s: %w", what, noEOF(err))
	}
	return b, nil
}

// noEOF converts io.EOF to io.ErrUnexpectedEOF: inside a header or record,
// running out of bytes is truncation, not a clean end.
func noEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// Meta returns the parsed header.
func (r *Reader) Meta() Meta { return r.meta }

// Next decodes the next record. It returns io.EOF at a clean record
// boundary and a descriptive error on malformed input.
func (r *Reader) Next() (Record, error) {
	tag, err := r.r.ReadByte()
	if err == io.EOF {
		return Record{}, io.EOF
	}
	if err != nil {
		return Record{}, fmt.Errorf("trace: reading record tag: %w", err)
	}
	kind := Kind(tag & 3)
	switch kind {
	case KindInstr:
		return r.readInstr(tag)
	case KindStartWrongPath, KindEndWrongPath:
		pc, err := binary.ReadUvarint(r.r)
		if err != nil {
			return Record{}, fmt.Errorf("trace: reading wrong-path pc: %w", noEOF(err))
		}
		return Record{Kind: kind, Target: pc}, nil
	default:
		return Record{}, fmt.Errorf("trace: unknown record kind %d", kind)
	}
}

func (r *Reader) readInstr(tag byte) (Record, error) {
	rec := Record{Kind: KindInstr, WrongPath: tag&(1<<2) != 0, Class: isa.Class(tag >> 3)}
	if int(rec.Class) >= isa.NumClasses {
		return Record{}, fmt.Errorf("trace: unknown instruction class %d", rec.Class)
	}
	delta, err := binary.ReadUvarint(r.r)
	if err != nil {
		return Record{}, fmt.Errorf("trace: reading pc delta: %w", noEOF(err))
	}
	rec.PC = r.prevPC + uint64(unzigzag(delta))
	r.prevPC = rec.PC
	var regs [3]isa.Reg
	for i := range regs {
		b, err := r.r.ReadByte()
		if err != nil {
			return Record{}, fmt.Errorf("trace: reading registers: %w", noEOF(err))
		}
		if regs[i], err = decodeReg(b); err != nil {
			return Record{}, err
		}
	}
	rec.Dest, rec.Src[0], rec.Src[1] = regs[0], regs[1], regs[2]
	if rec.Class.IsMem() {
		d, err := binary.ReadUvarint(r.r)
		if err != nil {
			return Record{}, fmt.Errorf("trace: reading address delta: %w", noEOF(err))
		}
		rec.Addr = r.prevAddr + uint64(unzigzag(d))
		r.prevAddr = rec.Addr
	}
	if rec.Class == isa.ClassBranch {
		flags, err := r.r.ReadByte()
		if err != nil {
			return Record{}, fmt.Errorf("trace: reading branch flags: %w", noEOF(err))
		}
		rec.Taken = flags&1 != 0
		d, err := binary.ReadUvarint(r.r)
		if err != nil {
			return Record{}, fmt.Errorf("trace: reading branch target: %w", noEOF(err))
		}
		rec.Target = rec.PC + uint64(unzigzag(d))
	}
	return rec, nil
}

// ReadMeta parses just the header of a trace file: a replay's recorded
// workload name, for labelling it.
func ReadMeta(path string) (Meta, error) {
	f, err := os.Open(path)
	if err != nil {
		return Meta{}, err
	}
	defer f.Close()
	r, err := NewReader(f)
	if err != nil {
		return Meta{}, fmt.Errorf("%s: %w", path, err)
	}
	return r.Meta(), nil
}
