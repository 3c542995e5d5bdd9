package bpred

import (
	"math/rand"
	"testing"
)

func TestAlwaysTakenBranchLearned(t *testing.T) {
	p := New(DefaultConfig())
	pc := uint64(0x4000)
	misses := 0
	for i := 0; i < 100; i++ {
		pred := p.Predict(pc)
		if !pred.Taken {
			misses++
		}
		p.Resolve(pc, pred, true, 0x5000)
	}
	// Cold counters start not-taken and the global history churns the index
	// while training; learning should still complete within a handful of
	// table entries.
	if misses > 12 {
		t.Errorf("always-taken branch mispredicted %d/100 times", misses)
	}
}

func TestAlternatingBranchGshareLearns(t *testing.T) {
	// T,N,T,N... is perfectly predictable with global history.
	p := New(DefaultConfig())
	pc := uint64(0x4000)
	misses := 0
	for i := 0; i < 400; i++ {
		taken := i%2 == 0
		pred := p.Predict(pc)
		if pred.Taken != taken {
			misses++
		}
		p.Resolve(pc, pred, taken, 0x5000)
	}
	// Allow warmup, then near-perfect.
	if misses > 40 {
		t.Errorf("alternating branch mispredicted %d/400 with gshare", misses)
	}
}

func TestBimodalWorseThanGshareOnPattern(t *testing.T) {
	run := func(kind Kind) int {
		cfg := DefaultConfig()
		cfg.Kind = kind
		p := New(cfg)
		pc := uint64(0x1230)
		misses := 0
		for i := 0; i < 1000; i++ {
			taken := i%2 == 0
			pred := p.Predict(pc)
			if pred.Taken != taken {
				misses++
			}
			p.Resolve(pc, pred, taken, 0x5000)
		}
		return misses
	}
	g, b := run(GShare), run(Bimodal)
	if g >= b {
		t.Errorf("gshare (%d misses) should beat bimodal (%d) on alternating pattern", g, b)
	}
}

func TestStaticPredictors(t *testing.T) {
	for _, kind := range []Kind{Taken, NotTaken} {
		cfg := DefaultConfig()
		cfg.Kind = kind
		p := New(cfg)
		pred := p.Predict(0x100)
		if pred.Taken != (kind == Taken) {
			t.Errorf("%v predictor predicted %v", kind, pred.Taken)
		}
	}
}

func TestBTB(t *testing.T) {
	p := New(DefaultConfig())
	pc, tgt := uint64(0x8000), uint64(0x9000)
	pred := p.Predict(pc)
	if pred.BTBHit {
		t.Error("cold BTB hit")
	}
	p.Resolve(pc, pred, true, tgt)
	pred = p.Predict(pc)
	if !pred.BTBHit || pred.Target != tgt {
		t.Errorf("BTB miss after training: hit=%v target=%#x", pred.BTBHit, pred.Target)
	}
}

func TestBTBNotUpdatedOnNotTaken(t *testing.T) {
	p := New(DefaultConfig())
	pc := uint64(0x8000)
	pred := p.Predict(pc)
	p.Resolve(pc, pred, false, 0)
	pred = p.Predict(pc)
	if pred.BTBHit {
		t.Error("BTB should not learn not-taken branches")
	}
}

func TestStatsAndAccuracy(t *testing.T) {
	p := New(DefaultConfig())
	if st := p.Stats(); st != (Stats{}) {
		t.Errorf("cold stats = %+v, want zero", st)
	}
	pc := uint64(0x4000)
	for i := 0; i < 50; i++ {
		pred := p.Predict(pc)
		p.Resolve(pc, pred, true, 0x5000)
	}
	st := p.Stats()
	if st.Lookups != 50 {
		t.Errorf("lookups = %d", st.Lookups)
	}
	if st.Mispredicts == 0 || st.Mispredicts > 12 {
		t.Errorf("mispredicts = %d, want small nonzero (cold start)", st.Mispredicts)
	}
	if acc := 1 - float64(st.Mispredicts)/float64(st.Lookups); acc <= 0.75 || acc >= 1 {
		t.Errorf("accuracy = %v", acc)
	}
}

func TestBiasedRandomStreamAccuracy(t *testing.T) {
	// A 90%-taken random branch should be predicted close to (but not above)
	// its bias by a bimodal predictor.
	cfg := DefaultConfig()
	cfg.Kind = Bimodal
	p := New(cfg)
	rng := rand.New(rand.NewSource(7))
	pc := uint64(0xa0)
	hits := 0
	const n = 10_000
	for i := 0; i < n; i++ {
		taken := rng.Float64() < 0.9
		pred := p.Predict(pc)
		if pred.Taken == taken {
			hits++
		}
		p.Resolve(pc, pred, taken, 0x5000)
	}
	acc := float64(hits) / n
	if acc < 0.85 || acc > 0.95 {
		t.Errorf("bimodal accuracy on 90%% biased branch = %v, want ~0.90", acc)
	}
}

func TestManyBranchesNoAliasCatastrophe(t *testing.T) {
	// 64 branches with distinct fixed biases; overall accuracy should be
	// high since the table has 2048 entries.
	p := New(DefaultConfig())
	rng := rand.New(rand.NewSource(11))
	hits, n := 0, 0
	for round := 0; round < 500; round++ {
		for b := 0; b < 64; b++ {
			pc := uint64(0x1000 + b*4)
			taken := b%2 == 0 // fixed per-branch direction
			pred := p.Predict(pc)
			if pred.Taken == taken {
				hits++
			}
			n++
			p.Resolve(pc, pred, taken, uint64(0x2000+rng.Intn(16)*4))
		}
	}
	if acc := float64(hits) / float64(n); acc < 0.9 {
		t.Errorf("accuracy on fixed-direction branch set = %v, want > 0.9", acc)
	}
}

func TestConfigValidation(t *testing.T) {
	for name, cfg := range map[string]Config{
		"table0":   {Kind: GShare, TableBits: 0, HistoryBits: 8, BTBBits: 9},
		"tableBig": {Kind: GShare, TableBits: 30, HistoryBits: 8, BTBBits: 9},
		"btb0":     {Kind: GShare, TableBits: 11, HistoryBits: 8, BTBBits: 0},
		"histNeg":  {Kind: GShare, TableBits: 11, HistoryBits: -1, BTBBits: 9},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %s did not panic", name)
				}
			}()
			New(cfg)
		}()
	}
}
