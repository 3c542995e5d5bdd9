// Package bpred implements the branch prediction hardware of the simulated
// front end: a gshare direction predictor (global history XOR PC indexing a
// table of 2-bit saturating counters) and a branch target buffer. A bimodal
// predictor (no history) is available for comparison and ablation.
//
// The predictor is real, not a stand-in: misprediction rates in the
// experiments emerge from running these tables over the synthetic
// instruction streams, exactly as SimpleScalar's predictor ran over Spec95
// traces in the paper.
package bpred

import (
	"fmt"
	"sync"
)

// Kind selects the direction-prediction scheme.
type Kind uint8

// Predictor kinds.
const (
	GShare Kind = iota
	Bimodal
	Taken    // static predict-taken (ablation baseline)
	NotTaken // static predict-not-taken (ablation baseline)
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case GShare:
		return "gshare"
	case Bimodal:
		return "bimodal"
	case Taken:
		return "taken"
	case NotTaken:
		return "nottaken"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Config describes the predictor's table geometry.
type Config struct {
	Kind        Kind
	TableBits   int // log2 of the direction table size
	HistoryBits int // global history length (gshare only)
	BTBBits     int // log2 of BTB entries
}

// DefaultConfig matches a 4K-entry gshare with 8 bits of history and a
// 2K-entry BTB: typical for the paper's era and the scale of its 16 KB front
// end.
func DefaultConfig() Config {
	return Config{Kind: GShare, TableBits: 12, HistoryBits: 8, BTBBits: 11}
}

// Predictor is the combined direction predictor and BTB.
type Predictor struct {
	cfg     Config
	table   []uint8 // 2-bit saturating counters
	history uint64  // global history register (speculatively updated)
	btbTag  []uint64
	btbTgt  []uint64

	// Statistics.
	lookups     uint64
	mispredicts uint64
	btbHits     uint64
	btbMisses   uint64
}

// New builds a predictor. All counters start weakly not-taken, matching a
// cold machine.
func New(cfg Config) *Predictor {
	if cfg.TableBits < 1 || cfg.TableBits > 24 {
		panic(fmt.Sprintf("bpred: TableBits %d outside [1,24]", cfg.TableBits))
	}
	if cfg.BTBBits < 1 || cfg.BTBBits > 24 {
		panic(fmt.Sprintf("bpred: BTBBits %d outside [1,24]", cfg.BTBBits))
	}
	if cfg.HistoryBits < 0 || cfg.HistoryBits > 32 {
		panic(fmt.Sprintf("bpred: HistoryBits %d outside [0,32]", cfg.HistoryBits))
	}
	p := &Predictor{
		cfg:    cfg,
		table:  reuse[uint8](&tablePools[cfg.TableBits], 1<<cfg.TableBits),
		btbTag: reuse[uint64](&btbPools[cfg.BTBBits], 1<<cfg.BTBBits),
		btbTgt: reuse[uint64](&btbPools[cfg.BTBBits], 1<<cfg.BTBBits),
	}
	for i := range p.table {
		p.table[i] = 1 // weakly not-taken
	}
	clear(p.btbTag)
	clear(p.btbTgt)
	return p
}

// Tables of released predictors, by log2 of their entry count: direction
// tables in tablePools, BTB tag and target arrays alike in btbPools.
var tablePools, btbPools [25]sync.Pool

// reuse returns a released table of length n from pool, or a new one. The
// caller resets it.
func reuse[T uint8 | uint64](pool *sync.Pool, n int) []T {
	if t, ok := pool.Get().(*[]T); ok {
		return *t
	}
	return make([]T, n)
}

// Release hands the predictor's direction table and BTB on to later
// predictors. The predictor must not be used afterwards; releasing twice is
// a no-op.
func (p *Predictor) Release() {
	if p.table == nil {
		return
	}
	table, tag, tgt := p.table, p.btbTag, p.btbTgt
	tablePools[p.cfg.TableBits].Put(&table)
	btbPools[p.cfg.BTBBits].Put(&tag)
	btbPools[p.cfg.BTBBits].Put(&tgt)
	p.table, p.btbTag, p.btbTgt = nil, nil, nil
}

func (p *Predictor) index(pc uint64) uint64 {
	mask := uint64(1)<<p.cfg.TableBits - 1
	idx := pc >> 2
	if p.cfg.Kind == GShare {
		hist := p.history & (uint64(1)<<p.cfg.HistoryBits - 1)
		idx ^= hist
	}
	return idx & mask
}

// Prediction is the front end's view of one branch.
type Prediction struct {
	Taken     bool
	Target    uint64
	BTBHit    bool
	tableIdx  uint64
	usedTable bool
}

// Predict consults the direction table and BTB for the branch at pc. The
// global history register is updated speculatively with the prediction, as
// real front ends do; Resolve repairs it on a misprediction.
func (p *Predictor) Predict(pc uint64) Prediction {
	p.lookups++
	var taken bool
	pred := Prediction{}
	switch p.cfg.Kind {
	case Taken:
		taken = true
	case NotTaken:
		taken = false
	default:
		idx := p.index(pc)
		taken = p.table[idx] >= 2
		pred.tableIdx = idx
		pred.usedTable = true
	}
	pred.Taken = taken

	bidx := (pc >> 2) & (uint64(1)<<p.cfg.BTBBits - 1)
	if p.btbTag[bidx] == pc && pc != 0 {
		pred.BTBHit = true
		pred.Target = p.btbTgt[bidx]
		p.btbHits++
	} else {
		p.btbMisses++
		// Without a BTB hit a taken prediction has no target; the front end
		// treats this as a (cheap) fetch redirect once decode computes it.
		pred.Target = 0
	}

	if p.cfg.HistoryBits > 0 {
		p.history = p.history<<1 | boolBit(taken)
	}
	return pred
}

// Resolve trains the predictor with the actual outcome of a branch at pc and
// repairs the speculative global history if the prediction was wrong.
// It must be called once per predicted branch, in program order (the commit
// stage's view); pred must be the Prediction returned for this instance.
func (p *Predictor) Resolve(pc uint64, pred Prediction, taken bool, target uint64) {
	if pred.usedTable {
		ctr := p.table[pred.tableIdx]
		if taken {
			if ctr < 3 {
				ctr++
			}
		} else if ctr > 0 {
			ctr--
		}
		p.table[pred.tableIdx] = ctr
	}
	if taken {
		bidx := (pc >> 2) & (uint64(1)<<p.cfg.BTBBits - 1)
		p.btbTag[bidx] = pc
		p.btbTgt[bidx] = target
	}
	if pred.Taken != taken {
		p.mispredicts++
		if p.cfg.HistoryBits > 0 {
			// Repair: overwrite the speculative bit with the real outcome.
			p.history = (p.history &^ 1) | boolBit(taken)
		}
	}
}

// HistorySnapshot returns the current global history register, for
// checkpointing at a discovered misprediction.
func (p *Predictor) HistorySnapshot() uint64 { return p.history }

// RestoreHistory rewinds the global history register to a snapshot taken by
// HistorySnapshot, discarding the bits inserted by wrong-path lookups.
func (p *Predictor) RestoreHistory(h uint64) { p.history = h }

// Stats reports accuracy counters.
type Stats struct {
	Lookups     uint64
	Mispredicts uint64
	BTBHits     uint64
	BTBMisses   uint64
}

// Stats returns a snapshot of the predictor's counters.
func (p *Predictor) Stats() Stats {
	return Stats{
		Lookups:     p.lookups,
		Mispredicts: p.mispredicts,
		BTBHits:     p.btbHits,
		BTBMisses:   p.btbMisses,
	}
}

func boolBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
