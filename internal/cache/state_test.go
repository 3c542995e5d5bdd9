package cache

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"galsim/internal/snapshot"
)

// accessMix returns n L1D-like addresses: mostly an 8 KB hot region, the
// rest spread over 1 MB, every third one a write.
func accessMix(seed int64, n int) ([]uint64, []bool) {
	rng := rand.New(rand.NewSource(seed))
	addrs, writes := make([]uint64, n), make([]bool, n)
	for i := range addrs {
		if rng.Intn(10) < 9 {
			addrs[i] = 0x1000_0000 + uint64(rng.Intn(8<<10))&^7
		} else {
			addrs[i] = 0x1000_0000 + uint64(rng.Intn(1<<20))&^7
		}
		writes[i] = i%3 == 0
	}
	return addrs, writes
}

// capture returns a hierarchy's snapshot section.
func capture(h *Hierarchy) []byte {
	e := snapshot.NewEncoder(nil)
	h.AppendState(e)
	return e.Bytes()
}

// A hierarchy restored from a capture recaptures identically, stores only
// its valid ways, and serves the next accesses identically.
func TestHierarchySnapshotRoundTrip(t *testing.T) {
	cfg := DefaultHierarchyConfig()
	orig := NewHierarchy(cfg)
	addrs, writes := accessMix(1, 20000)
	for i := 0; i < 10000; i++ {
		orig.L1D.Access(addrs[i], writes[i])
		orig.L1I.Access(addrs[i]&^0xF000_0000|0x0040_0000, false)
	}
	st := capture(orig)
	// Three bitmaps per cache, and a tag and a stamp of at most 10 bytes
	// each per valid way.
	valid := 0
	for _, c := range []*Cache{orig.L1I, orig.L1D, orig.L2} {
		for _, w := range c.ways {
			if w.valid {
				valid++
			}
		}
	}
	ways := len(orig.L1I.ways) + len(orig.L1D.ways) + len(orig.L2.ways)
	if limit := 3*ways/8 + 20*valid + 200; len(st) > limit || valid == ways {
		t.Fatalf("section of %d bytes for %d valid of %d ways, want at most %d", len(st), valid, ways, limit)
	}
	restored := NewHierarchy(cfg)
	d := snapshot.NewDecoder(st)
	restored.RestoreState(d)
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
	if got := capture(restored); !bytes.Equal(got, st) {
		t.Fatal("recapture of a restored hierarchy differs from the capture")
	}
	for i := 10000; i < len(addrs); i++ {
		if a, b := orig.L1D.Access(addrs[i], writes[i]), restored.L1D.Access(addrs[i], writes[i]); a != b {
			t.Fatalf("access %d: restored latency %d, original %d", i, b, a)
		}
	}
	if orig.L1D.Stats() != restored.L1D.Stats() || orig.L2.Stats() != restored.L2.Stats() {
		t.Errorf("stats diverged: %+v / %+v vs %+v / %+v",
			restored.L1D.Stats(), restored.L2.Stats(), orig.L1D.Stats(), orig.L2.Stats())
	}
	small := cfg
	small.L1D.SizeBytes /= 2
	d = snapshot.NewDecoder(st)
	NewHierarchy(small).RestoreState(d)
	if err := d.Err(); err == nil || !strings.Contains(err.Error(), "does not match geometry") {
		t.Errorf("restore into a smaller L1D: %v, want the geometry mismatch", err)
	}
}

// BenchmarkCacheAccess times one L1D access from a hit/miss mix on the
// paper's Table 3 hierarchy.
func BenchmarkCacheAccess(b *testing.B) {
	h := NewHierarchy(DefaultHierarchyConfig())
	addrs, writes := accessMix(2, 1<<14)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i & (len(addrs) - 1)
		h.L1D.Access(addrs[j], writes[j])
	}
}
