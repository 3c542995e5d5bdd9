package cache

import (
	"math/rand"
	"reflect"
	"testing"
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

// A hierarchy restored from a capture recaptures identically, keeps the
// [sets][ways] snapshot shape, and serves the next accesses identically.
func TestHierarchySnapshotRoundTrip(t *testing.T) {
	cfg := DefaultHierarchyConfig()
	orig := NewHierarchy(cfg)
	addrs, writes := accessMix(1, 20000)
	for i := 0; i < 10000; i++ {
		orig.L1D.Access(addrs[i], writes[i])
		orig.L1I.Access(addrs[i]&^0xF000_0000|0x0040_0000, false)
	}
	st := orig.CaptureState()
	if len(st.L1D.Sets) != 128 || len(st.L1D.Sets[0]) != 4 || len(st.L1I.Sets) != 512 || len(st.L1I.Sets[0]) != 1 {
		t.Fatalf("snapshot shape L1D %dx%d, L1I %dx%d; want 128x4, 512x1",
			len(st.L1D.Sets), len(st.L1D.Sets[0]), len(st.L1I.Sets), len(st.L1I.Sets[0]))
	}
	restored := NewHierarchy(cfg)
	if err := restored.RestoreState(st); err != nil {
		t.Fatal(err)
	}
	if got := restored.CaptureState(); !reflect.DeepEqual(got, st) {
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
	bad := st.L1D
	bad.Sets = bad.Sets[:len(bad.Sets)-1]
	if err := NewHierarchy(cfg).L1D.RestoreState(bad); err == nil {
		t.Error("restore with a missing set succeeded")
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
