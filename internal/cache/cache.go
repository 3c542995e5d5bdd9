// Package cache implements the simulated memory hierarchy: set-associative
// caches with LRU replacement arranged in levels (L1 instruction, L1 data,
// unified L2, main memory), with the geometry and latencies of the paper's
// Table 3:
//
//	L1 data:        16 KB, 4-way,          1-cycle latency
//	L1 instruction: 16 KB, direct-mapped,  1-cycle latency
//	L2 unified:     256 KB, 4-way,         6-cycle latency
//
// Timing is the only observable: an access returns the total latency, in
// cycles of the clock domain that owns the first-level cache, and records
// which level served it. Contents are not modeled (the simulator is
// trace-driven); tags are.
package cache

import (
	"fmt"
	"math/bits"
	"sync"
)

// Level is anything that can serve a memory access: a Cache or main Memory.
type Level interface {
	// Access performs a read or write of the line containing addr and
	// returns the total latency in cycles, including lower levels.
	Access(addr uint64, write bool) int
	// Name returns the level's diagnostic name.
	Name() string
}

// Config describes one cache's geometry.
type Config struct {
	Name       string
	SizeBytes  int
	LineBytes  int
	Assoc      int // 1 = direct-mapped
	HitLatency int // cycles for a hit in this level

	// NextLinePrefetch enables a tagged next-line prefetcher: a miss fills
	// the demanded line and prefetches its successor; the first hit to a
	// prefetched line prefetches the next one, so a sequential stream keeps
	// exactly one line of headroom regardless of the issue order of the
	// individual accesses. Prefetch fills are charged no latency (they
	// complete off the critical path).
	NextLinePrefetch bool
}

// way is one line's tag-store entry (24 bytes).
type way struct {
	tag        uint64
	lru        uint64 // timestamp of last touch; larger = more recent
	valid      bool
	prefetched bool // installed by prefetch and not yet demanded
	dirty      bool
}

// Stats counts cache activity; Writebacks counts dirty-line evictions (we
// track dirtiness but charge no extra latency for the writeback, which
// happens off the critical path).
type Stats struct {
	Accesses   uint64
	Hits       uint64
	Misses     uint64
	Writebacks uint64
}

// HitRate returns Hits/Accesses, or 1 when the cache is untouched.
func (s Stats) HitRate() float64 {
	if s.Accesses == 0 {
		return 1
	}
	return float64(s.Hits) / float64(s.Accesses)
}

// Cache is one set-associative level backed by a lower Level.
type Cache struct {
	cfg      Config
	ways     []way // the tag store: set s is ways[s*assoc : (s+1)*assoc]
	assoc    int
	lower    Level
	tick     uint64
	stats    Stats
	setMask  uint64
	lineBits uint
	setBits  uint // log2 of the set count: the tag is lineAddr >> setBits
}

// New builds a cache over the given lower level (which must not be nil).
// cfg must be well formed — positive sizes, and a power-of-two line size
// and set count — as DefaultHierarchyConfig's caches, the only ones
// simulated, are; New does not check it on every core it builds.
func New(cfg Config, lower Level) *Cache {
	if lower == nil {
		panic(fmt.Sprintf("cache %q: nil lower level", cfg.Name))
	}
	nsets := cfg.SizeBytes / (cfg.LineBytes * cfg.Assoc)
	c := &Cache{
		cfg:     cfg,
		ways:    newWays(nsets * cfg.Assoc),
		assoc:   cfg.Assoc,
		lower:   lower,
		setMask: uint64(nsets - 1),
		setBits: uint(bits.OnesCount64(uint64(nsets - 1))),
	}
	for l := cfg.LineBytes; l > 1; l >>= 1 {
		c.lineBits++
	}
	return c
}

// wayPools holds the tag stores of released caches, by capacity class: the
// stores in wayPools[k] have capacity 1<<k.
var wayPools [64]sync.Pool

// newWays returns a zeroed tag store of n ways, recycled from a released
// cache of the same capacity class when one is at hand.
func newWays(n int) []way {
	k := bits.Len(uint(n - 1))
	if ws, ok := wayPools[k].Get().(*[]way); ok {
		w := (*ws)[:n]
		clear(w)
		return w
	}
	return make([]way, n, 1<<k)
}

// Release hands the cache's tag store on to later caches. The cache must
// not be used afterwards; releasing twice is a no-op.
func (c *Cache) Release() {
	if ws := c.ways; ws != nil {
		wayPools[bits.Len(uint(cap(ws)))-1].Put(&ws)
		c.ways = nil
	}
}

// Name implements Level.
func (c *Cache) Name() string { return c.cfg.Name }

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats { return c.stats }

// Access implements Level: look up the line containing addr; on a miss,
// fetch it from the lower level and install it, evicting the LRU way.
func (c *Cache) Access(addr uint64, write bool) int {
	c.tick++
	c.stats.Accesses++
	set, tag := c.lookup(addr)
	for w := range set {
		if set[w].valid && set[w].tag == tag {
			c.stats.Hits++
			set[w].lru = c.tick
			if write {
				set[w].dirty = true
			}
			if set[w].prefetched {
				// Tagged prefetch: the stream reached this line; keep one
				// line of headroom.
				set[w].prefetched = false
				c.Prefetch(addr + uint64(c.cfg.LineBytes))
			}
			return c.cfg.HitLatency
		}
	}

	c.stats.Misses++
	lowerLat := c.lower.Access(addr, write)
	if c.cfg.NextLinePrefetch {
		c.Prefetch(addr + uint64(c.cfg.LineBytes))
	}

	c.install(set, way{tag: tag, valid: true, lru: c.tick, dirty: write})
	return c.cfg.HitLatency + lowerLat
}

// Prefetch installs the line containing addr into this cache and every
// lower cache level without charging latency or perturbing demand
// statistics; the line is marked so that a later demand hit extends the
// prefetch stream (tagged next-line prefetching). Fills complete off the
// critical path.
func (c *Cache) Prefetch(addr uint64) {
	if lower, ok := c.lower.(*Cache); ok {
		lower.Prefetch(addr)
	}
	c.tick++
	set, tag := c.lookup(addr)
	for w := range set {
		if set[w].valid && set[w].tag == tag {
			return // already resident; leave LRU alone
		}
	}
	c.install(set, way{tag: tag, valid: true, lru: c.tick, prefetched: c.cfg.NextLinePrefetch})
}

// lookup returns the set the line containing addr maps to and its tag.
func (c *Cache) lookup(addr uint64) ([]way, uint64) {
	lineAddr := addr >> c.lineBits
	base := int(lineAddr&c.setMask) * c.assoc
	return c.ways[base : base+c.assoc], lineAddr >> c.setBits
}

// install fills a line into set, replacing the first invalid way or else
// the least recently used one, and counts the writeback of a dirty victim.
func (c *Cache) install(set []way, line way) {
	victim := -1
	for w := range set {
		if !set[w].valid {
			victim = w
			break
		}
	}
	if victim < 0 {
		victim = 0
		for w := 1; w < len(set); w++ {
			if set[w].lru < set[victim].lru {
				victim = w
			}
		}
	}
	if set[victim].valid && set[victim].dirty {
		c.stats.Writebacks++
	}
	set[victim] = line
}

// Memory is the bottom of the hierarchy: a fixed-latency DRAM model.
type Memory struct {
	Latency  int // cycles
	accesses uint64
}

// NewMemory builds a main-memory level with the given access latency.
func NewMemory(latency int) *Memory {
	if latency < 0 {
		panic(fmt.Sprintf("cache: negative memory latency %d", latency))
	}
	return &Memory{Latency: latency}
}

// Name implements Level.
func (m *Memory) Name() string { return "memory" }

// Access implements Level.
func (m *Memory) Access(addr uint64, write bool) int {
	m.accesses++
	return m.Latency
}

// Accesses returns the number of requests that reached main memory.
func (m *Memory) Accesses() uint64 { return m.accesses }

// Hierarchy bundles the standard three-cache configuration of Table 3 plus
// main memory, shared between the base and GALS machines.
type Hierarchy struct {
	L1I *Cache
	L1D *Cache
	L2  *Cache
	Mem *Memory
}

// HierarchyConfig parameterizes NewHierarchy.
type HierarchyConfig struct {
	L1I, L1D, L2 Config
	MemLatency   int
}

// DefaultHierarchyConfig returns the paper's Table 3 memory system. The
// 6-cycle L2 latency in the table is the total load-to-use time for an L1
// miss/L2 hit, so the L2's own latency is 6 − 1.
func DefaultHierarchyConfig() HierarchyConfig {
	return HierarchyConfig{
		L1I:        Config{Name: "l1i", SizeBytes: 16 << 10, LineBytes: 32, Assoc: 1, HitLatency: 1, NextLinePrefetch: true},
		L1D:        Config{Name: "l1d", SizeBytes: 16 << 10, LineBytes: 32, Assoc: 4, HitLatency: 1, NextLinePrefetch: true},
		L2:         Config{Name: "l2", SizeBytes: 256 << 10, LineBytes: 64, Assoc: 4, HitLatency: 5},
		MemLatency: 60,
	}
}

// Release hands every cache's tag store on to later caches. The hierarchy
// must not be used afterwards.
func (h *Hierarchy) Release() {
	h.L1I.Release()
	h.L1D.Release()
	h.L2.Release()
}

// NewHierarchy builds the L1I/L1D → shared L2 → memory structure.
func NewHierarchy(cfg HierarchyConfig) *Hierarchy {
	mem := NewMemory(cfg.MemLatency)
	l2 := New(cfg.L2, mem)
	return &Hierarchy{
		L1I: New(cfg.L1I, l2),
		L1D: New(cfg.L1D, l2),
		L2:  l2,
		Mem: mem,
	}
}
