package cache

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func smallCache(assoc int) (*Cache, *Memory) {
	mem := NewMemory(50)
	c := New(Config{
		Name: "t", SizeBytes: 8 * 32 * assoc, LineBytes: 32, Assoc: assoc, HitLatency: 1,
	}, mem) // 8 sets
	return c, mem
}

func TestColdMissThenHit(t *testing.T) {
	c, mem := smallCache(2)
	if lat := c.Access(0x1000, false); lat != 51 {
		t.Errorf("cold miss latency = %d, want 51", lat)
	}
	if lat := c.Access(0x1000, false); lat != 1 {
		t.Errorf("hit latency = %d, want 1", lat)
	}
	if lat := c.Access(0x101f, false); lat != 1 {
		t.Errorf("same-line hit latency = %d, want 1", lat)
	}
	if mem.Accesses() != 1 {
		t.Errorf("memory accesses = %d, want 1", mem.Accesses())
	}
}

func TestDirectMappedConflict(t *testing.T) {
	c, _ := smallCache(1)
	// 8 sets of 32B lines => addresses 0 and 8*32=256 conflict.
	c.Access(0, false)
	c.Access(256, false)
	if lat := c.Access(0, false); lat == 1 {
		t.Error("conflicting line should have been evicted")
	}
	st := c.Stats()
	if st.Hits != 0 || st.Misses != 3 {
		t.Errorf("stats = %+v", st)
	}
}

func TestAssociativityAvoidsConflict(t *testing.T) {
	c, _ := smallCache(2)
	c.Access(0, false)
	c.Access(512, false) // same set (8 sets), different way
	if lat := c.Access(0, false); lat != 1 {
		t.Error("2-way cache should hold both conflicting lines")
	}
	if lat := c.Access(512, false); lat != 1 {
		t.Error("second line evicted unexpectedly")
	}
}

func TestLRUReplacement(t *testing.T) {
	c, _ := smallCache(2)
	a, b, d := uint64(0), uint64(512), uint64(1024) // all map to set 0
	c.Access(a, false)
	c.Access(b, false)
	c.Access(a, false) // a is now MRU
	c.Access(d, false) // evicts b (LRU)
	if lat := c.Access(a, false); lat != 1 {
		t.Error("MRU line a was evicted")
	}
	if lat := c.Access(b, false); lat == 1 {
		t.Error("LRU line b should have been evicted")
	}
}

func TestWritebackCounting(t *testing.T) {
	c, _ := smallCache(1)
	c.Access(0, true)    // dirty line in set 0
	c.Access(256, false) // evicts dirty line
	if wb := c.Stats().Writebacks; wb != 1 {
		t.Errorf("writebacks = %d, want 1", wb)
	}
	c.Access(512, false) // evicts clean line
	if wb := c.Stats().Writebacks; wb != 1 {
		t.Errorf("writebacks = %d, want 1 (clean eviction)", wb)
	}
}

func TestProbe(t *testing.T) {
	c, _ := smallCache(2)
	if c.Probe(0x40) {
		t.Error("cold probe hit")
	}
	st := c.Stats()
	c.Access(0x40, false)
	if !c.Probe(0x40) {
		t.Error("probe miss after access")
	}
	if c.Stats().Accesses != st.Accesses+1 {
		t.Error("Probe perturbed statistics")
	}
}

func TestHierarchyLatencies(t *testing.T) {
	h := NewHierarchy(DefaultHierarchyConfig())
	// Cold: L1 miss + L2 miss + memory = 1 + 5 + 60.
	if lat := h.L1D.Access(0x8000, false); lat != 66 {
		t.Errorf("cold load latency = %d, want 66", lat)
	}
	// L1 hit.
	if lat := h.L1D.Access(0x8000, false); lat != 1 {
		t.Errorf("L1 hit latency = %d, want 1", lat)
	}
	// L1I cold miss but L2 now holds the (64B) line only if it covers the
	// same L2 line; use an address in the same 64B block.
	if lat := h.L1I.Access(0x8020, false); lat != 6 {
		t.Errorf("L1 miss/L2 hit latency = %d, want 6 (Table 3)", lat)
	}
}

func TestDefaultGeometryMatchesTable3(t *testing.T) {
	cfg := DefaultHierarchyConfig()
	if cfg.L1D.SizeBytes != 16<<10 || cfg.L1D.Assoc != 4 {
		t.Error("L1D geometry mismatch with Table 3")
	}
	if cfg.L1I.SizeBytes != 16<<10 || cfg.L1I.Assoc != 1 {
		t.Error("L1I geometry mismatch with Table 3")
	}
	if cfg.L2.SizeBytes != 256<<10 || cfg.L2.Assoc != 4 {
		t.Error("L2 geometry mismatch with Table 3")
	}
	for _, c := range []Config{cfg.L1I, cfg.L1D, cfg.L2} {
		if err := validate(c); err != nil {
			t.Errorf("default config invalid: %v", err)
		}
	}
}

func TestSequentialStreamHitsAfterWarmup(t *testing.T) {
	h := NewHierarchy(DefaultHierarchyConfig())
	// Walk a 4KB region twice; second pass should be all L1 hits.
	for pass := 0; pass < 2; pass++ {
		for a := uint64(0); a < 4096; a += 8 {
			h.L1D.Access(a, false)
		}
	}
	st := h.L1D.Stats()
	// With the tagged next-line prefetcher only the very first line misses;
	// every later line of the stream is prefetched ahead of use.
	if st.Misses > 4 {
		t.Errorf("misses = %d, want <= 4 with next-line prefetch", st.Misses)
	}
	if hr := st.HitRate(); hr < 0.99 {
		t.Errorf("hit rate = %v", hr)
	}
}

func TestPrefetchDisabledColdMisses(t *testing.T) {
	cfg := DefaultHierarchyConfig()
	cfg.L1D.NextLinePrefetch = false
	h := NewHierarchy(cfg)
	for a := uint64(0); a < 4096; a += 8 {
		h.L1D.Access(a, false)
	}
	// 128 distinct 32-byte lines, one cold miss each.
	if m := h.L1D.Stats().Misses; m != 128 {
		t.Errorf("misses = %d, want 128 without prefetch", m)
	}
}

func TestTaggedPrefetchChains(t *testing.T) {
	cfg := DefaultHierarchyConfig()
	h := NewHierarchy(cfg)
	// Touch line 0: miss, prefetches line 1.
	h.L1D.Access(0, false)
	if !h.L1D.Probe(32) {
		t.Fatal("next line not prefetched on miss")
	}
	if h.L1D.Probe(64) {
		t.Fatal("line 2 prefetched prematurely")
	}
	// First hit on prefetched line 1 chains the prefetch to line 2.
	if lat := h.L1D.Access(32, false); lat != 1 {
		t.Fatalf("prefetched line missed (lat %d)", lat)
	}
	if !h.L1D.Probe(64) {
		t.Error("tagged prefetch did not chain on first hit")
	}
}

func TestRandomLargeFootprintMissesOften(t *testing.T) {
	h := NewHierarchy(DefaultHierarchyConfig())
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 20_000; i++ {
		h.L1D.Access(uint64(rng.Intn(64<<20)), false) // 64MB working set
	}
	if hr := h.L1D.Stats().HitRate(); hr > 0.2 {
		t.Errorf("random 64MB stream hit rate = %v, want tiny", hr)
	}
}

func TestStatsConservation(t *testing.T) {
	f := func(addrs []uint32) bool {
		c, _ := smallCache(4)
		for _, a := range addrs {
			c.Access(uint64(a), a%3 == 0)
		}
		st := c.Stats()
		return st.Accesses == uint64(len(addrs)) && st.Hits+st.Misses == st.Accesses
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: a working set no larger than the cache never misses after one
// full warmup pass (true LRU, power-of-two sets).
func TestLRUInclusionProperty(t *testing.T) {
	c, _ := smallCache(4) // 8 sets * 4 ways * 32B = 1KB
	var addrs []uint64
	for a := uint64(0); a < 1024; a += 32 {
		addrs = append(addrs, a)
	}
	for _, a := range addrs {
		c.Access(a, false)
	}
	before := c.Stats().Misses
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 10_000; i++ {
		c.Access(addrs[rng.Intn(len(addrs))], false)
	}
	if c.Stats().Misses != before {
		t.Errorf("resident working set missed: %d -> %d", before, c.Stats().Misses)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Name: "a", SizeBytes: 0, LineBytes: 32, Assoc: 1, HitLatency: 1},
		{Name: "b", SizeBytes: 1024, LineBytes: 24, Assoc: 1, HitLatency: 1},
		{Name: "c", SizeBytes: 1000, LineBytes: 32, Assoc: 1, HitLatency: 1},
		{Name: "d", SizeBytes: 96 * 32, LineBytes: 32, Assoc: 1, HitLatency: 1}, // 96 sets, not 2^n
		{Name: "e", SizeBytes: 1024, LineBytes: 32, Assoc: 1, HitLatency: -1},
	}
	for _, cfg := range bad {
		if err := validate(cfg); err == nil {
			t.Errorf("config %q should be invalid", cfg.Name)
		}
	}
}

func TestMemoryLevel(t *testing.T) {
	m := NewMemory(42)
	if m.Access(0, false) != 42 || m.Access(1<<40, true) != 42 {
		t.Error("memory latency not constant")
	}
	if m.Accesses() != 2 {
		t.Errorf("accesses = %d", m.Accesses())
	}
	if m.Name() != "memory" {
		t.Error("name")
	}
}

// validate reports an error if c's geometry is malformed: what New
// assumes of a configuration and does not check.
func validate(c Config) error {
	switch {
	case c.SizeBytes <= 0 || c.LineBytes <= 0 || c.Assoc <= 0:
		return fmt.Errorf("cache %q: non-positive geometry %+v", c.Name, c)
	case c.LineBytes&(c.LineBytes-1) != 0:
		return fmt.Errorf("cache %q: line size %d not a power of two", c.Name, c.LineBytes)
	case c.SizeBytes%(c.LineBytes*c.Assoc) != 0:
		return fmt.Errorf("cache %q: size %d not divisible by line*assoc", c.Name, c.SizeBytes)
	case c.HitLatency < 0:
		return fmt.Errorf("cache %q: negative hit latency", c.Name)
	}
	sets := c.SizeBytes / (c.LineBytes * c.Assoc)
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache %q: set count %d not a power of two", c.Name, sets)
	}
	return nil
}
