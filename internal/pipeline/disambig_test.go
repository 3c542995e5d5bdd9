package pipeline

import (
	"testing"

	"galsim/internal/workload"
)

// runDisambig measures one policy on a memory-heavy benchmark.
func runDisambig(t *testing.T, policy MemDisambiguation) Stats {
	t.Helper()
	cfg := DefaultConfig(BaseTopology())
	cfg.MemDisambig = policy
	prof, err := workload.ByName("vortex") // load/store heavy
	if err != nil {
		t.Fatal(err)
	}
	return NewCore(cfg, prof).Run(20_000)
}

func TestDisambiguationPolicyOrdering(t *testing.T) {
	perfect := runDisambig(t, DisambigPerfect)
	addr := runDisambig(t, DisambigAddrMatch)
	conservative := runDisambig(t, DisambigConservative)

	// Perfect never blocks loads on stores.
	if perfect.LoadsBlockedByStores != 0 {
		t.Errorf("perfect policy blocked %d loads", perfect.LoadsBlockedByStores)
	}
	// Conservative blocks at least as much as address matching.
	if conservative.LoadsBlockedByStores < addr.LoadsBlockedByStores {
		t.Errorf("conservative blocked %d < addr-match %d",
			conservative.LoadsBlockedByStores, addr.LoadsBlockedByStores)
	}
	if conservative.LoadsBlockedByStores == 0 {
		t.Error("conservative policy never blocked a load on a memory-heavy benchmark")
	}
	// Performance ordering: perfect >= addr-match >= conservative (ties
	// possible on short runs, strict inequality for the extremes).
	if conservative.SimTime < perfect.SimTime {
		t.Errorf("conservative (%v) faster than perfect (%v)", conservative.SimTime, perfect.SimTime)
	}
	if addr.SimTime < perfect.SimTime {
		t.Errorf("addr-match (%v) faster than perfect (%v)", addr.SimTime, perfect.SimTime)
	}
	if conservative.SimTime < addr.SimTime {
		t.Errorf("conservative (%v) faster than addr-match (%v)", conservative.SimTime, addr.SimTime)
	}
}

func TestDisambiguationCommitsEverything(t *testing.T) {
	for _, policy := range []MemDisambiguation{DisambigPerfect, DisambigConservative, DisambigAddrMatch} {
		st := runDisambig(t, policy)
		if st.Committed != 20_000 {
			t.Errorf("%v committed %d", policy, st.Committed)
		}
	}
}

func TestDisambiguationStrings(t *testing.T) {
	if DisambigPerfect.String() != "perfect" ||
		DisambigConservative.String() != "conservative" ||
		DisambigAddrMatch.String() != "addr-match" {
		t.Error("policy names wrong")
	}
}

func TestDisambiguationGALS(t *testing.T) {
	cfg := DefaultConfig(GALSTopology())
	cfg.MemDisambig = DisambigConservative
	prof, _ := workload.ByName("li")
	st := NewCore(cfg, prof).Run(10_000)
	if st.Committed != 10_000 {
		t.Errorf("committed %d", st.Committed)
	}
}
