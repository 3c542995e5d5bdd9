package isa

import (
	"fmt"
	"sync"
)

// poolChunk is the number of instruction records allocated per arena growth.
// One chunk is ~a quarter megabyte, large enough that chunk allocation is
// invisible in steady state. A short run touches little more than its first
// chunk, yet that chunk would dominate its allocation, so Recycle hands the
// chunks to chunkPool and a later arena's growth takes one from there,
// zeroed, before it allocates a new one.
const poolChunk = 1024

// chunkPool holds the chunks of recycled arenas.
var chunkPool sync.Pool

// newChunk returns a zeroed chunk, taken from chunkPool when one is there.
// Zeroing resets every record's generation too, so a recycled chunk cannot
// be told apart from a new one.
func newChunk() *[poolChunk]Instr {
	if ch, ok := chunkPool.Get().(*[poolChunk]Instr); ok {
		clear(ch[:])
		return ch
	}
	return new([poolChunk]Instr)
}

// Pool is an instruction arena: a chunked backing store plus a free list of
// recycled records. See the package comment for the lifecycle. A Pool is not
// safe for concurrent use; each simulated core owns one, matching the
// simulator's single-threaded-per-core design.
type Pool struct {
	chunks []*[poolChunk]Instr
	used   int // records handed out of the newest chunk
	free   []*Instr

	gets     uint64
	reuses   uint64
	releases uint64
}

// NewPool returns an empty arena; the first Get allocates the first chunk.
func NewPool() *Pool { return &Pool{} }

// Get returns a blank instruction (identical to NewInstr) holding one
// reference, recycling a freed record when one is available.
func (p *Pool) Get(seq Seq, pc uint64, class Class) *Instr {
	var in *Instr
	if n := len(p.free); n > 0 {
		in = p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		p.reuses++
	} else {
		if len(p.chunks) == 0 || p.used == poolChunk {
			p.chunks = append(p.chunks, newChunk())
			p.used = 0
		}
		in = &p.chunks[len(p.chunks)-1][p.used]
		p.used++
	}
	in.reset(seq, pc, class)
	in.refs = 1
	p.gets++
	return in
}

// Retain adds a reference: the caller is storing the record in a second
// structure (in the pipeline, the reorder buffer at rename).
func (p *Pool) Retain(in *Instr) { in.refs++ }

// Release drops one reference; the last release recycles the record onto the
// free list and bumps its generation. Releasing more times than the record
// was retained is a use-after-free in the making and panics immediately.
func (p *Pool) Release(in *Instr) {
	in.refs--
	if in.refs > 0 {
		return
	}
	if in.refs < 0 {
		panic(fmt.Sprintf("isa: over-released instruction %d (gen %d)", in.Seq, in.gen))
	}
	in.gen++
	p.releases++
	p.free = append(p.free, in)
}

// Recycle hands the arena's chunks on to later arenas. Neither the arena nor
// any record it handed out may be used afterwards; recycling twice is a
// no-op.
func (p *Pool) Recycle() {
	for _, ch := range p.chunks {
		chunkPool.Put(ch)
	}
	p.chunks, p.free, p.used = nil, nil, 0
}

// PoolStats snapshots the arena's counters.
type PoolStats struct {
	Gets     uint64 // records handed out
	Reuses   uint64 // hand-outs served from the free list
	Releases uint64 // records fully released back to the pool
	Chunks   int    // backing chunks allocated
	FreeLen  int    // records currently on the free list
}

// Stats returns a snapshot of the arena's counters.
func (p *Pool) Stats() PoolStats {
	return PoolStats{
		Gets:     p.gets,
		Reuses:   p.reuses,
		Releases: p.releases,
		Chunks:   len(p.chunks),
		FreeLen:  len(p.free),
	}
}
