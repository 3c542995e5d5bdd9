package isa

import (
	"galsim/internal/simtime"
	"galsim/internal/snapshot"
)

// Bits of a record's flag byte in its snapshot form.
const (
	flagTaken = 1 << iota
	flagPredTaken
	flagMispredicted
	flagWrongPath
	flagDone
	flagDCacheHit
	numFlags = iota
)

// AppendState appends every simulation field of the record to its snapshot
// section; the arena bookkeeping (reference count and generation) stays
// behind.
func (in *Instr) AppendState(e *snapshot.Encoder) {
	e.Uvarint(uint64(in.Seq))
	e.Uvarint(in.PC)
	e.Byte(byte(in.Class))
	for _, r := range [...]Reg{in.Src[0], in.Src[1], in.Dest} {
		e.Byte(byte(r.File))
		e.Byte(r.Index)
	}
	e.Uvarint(in.Addr)
	var flags byte
	for i, set := range [numFlags]bool{in.Taken, in.PredTaken, in.Mispredicted, in.WrongPath, in.Done, in.DCacheHit} {
		if set {
			flags |= 1 << i
		}
	}
	e.Byte(flags)
	e.Uvarint(in.Target)
	e.Uvarint(in.PredTarget)
	e.Uvarint(in.WPID)
	for _, v := range [...]int{in.PhysSrc[0], in.PhysSrc[1], in.PhysDest, in.OldPhys, in.ROBIndex} {
		e.Int(v)
	}
	for _, t := range [...]*simtime.Time{&in.FetchTime, &in.DecodeTime, &in.DispatchTime, &in.IssueTime, &in.CompleteTime, &in.CommitTime} {
		e.Time(*t)
	}
	e.Int(int(in.FIFOTime))
}

// RestoreState reads the fields AppendState wrote into the record, keeping
// its arena bookkeeping, so a record taken from an arena stays accounted.
func (in *Instr) RestoreState(d *snapshot.Decoder) {
	in.Seq = Seq(d.Uvarint())
	in.PC = d.Uvarint()
	if in.Class = Class(d.Byte()); int(in.Class) >= NumClasses {
		d.Failf("isa: restored record class %d outside the %d classes", in.Class, NumClasses)
	}
	for _, r := range [...]*Reg{&in.Src[0], &in.Src[1], &in.Dest} {
		r.File = RegFile(d.Byte())
		r.Index = d.Byte()
	}
	in.Addr = d.Uvarint()
	flags := d.Byte()
	if flags>>numFlags != 0 {
		d.Failf("isa: restored record flags %#x set undefined bits", flags)
	}
	for i, f := range [numFlags]*bool{&in.Taken, &in.PredTaken, &in.Mispredicted, &in.WrongPath, &in.Done, &in.DCacheHit} {
		*f = flags&(1<<i) != 0
	}
	in.Target = d.Uvarint()
	in.PredTarget = d.Uvarint()
	in.WPID = d.Uvarint()
	for _, v := range [...]*int{&in.PhysSrc[0], &in.PhysSrc[1], &in.PhysDest, &in.OldPhys, &in.ROBIndex} {
		*v = d.Int()
	}
	for _, t := range [...]*simtime.Time{&in.FetchTime, &in.DecodeTime, &in.DispatchTime, &in.IssueTime, &in.CompleteTime, &in.CommitTime} {
		*t = d.Time()
	}
	in.FIFOTime = simtime.Duration(d.Int())
}
