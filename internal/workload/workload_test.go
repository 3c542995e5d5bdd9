package workload

import (
	"math"
	"testing"

	"galsim/internal/isa"
)

func TestAllProfilesValid(t *testing.T) {
	for _, p := range All() {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
	}
	if len(All()) < 12 {
		t.Errorf("only %d profiles registered", len(All()))
	}
}

func TestByName(t *testing.T) {
	p, err := ByName("gcc")
	if err != nil || p.Name != "gcc" {
		t.Fatalf("ByName(gcc) = %v, %v", p.Name, err)
	}
	if _, err := ByName("nonesuch"); err == nil {
		t.Error("unknown benchmark did not error")
	}
}

func TestIntegerBenchmarks(t *testing.T) {
	ints := IntegerBenchmarks()
	if len(ints) < 6 {
		t.Errorf("too few integer benchmarks: %v", ints)
	}
	for _, n := range ints {
		p, _ := ByName(n)
		if p.Suite != "spec95int" {
			t.Errorf("%s in integer set but suite %s", n, p.Suite)
		}
	}
}

// measureMix runs the generator and counts dynamic class fractions.
func measureMix(t *testing.T, name string, n int) map[isa.Class]float64 {
	t.Helper()
	p, err := ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	g := NewGenerator(p, 1)
	counts := map[isa.Class]int{}
	for i := 0; i < n; i++ {
		in := g.Next()
		counts[in.Class]++
	}
	out := map[isa.Class]float64{}
	for c, k := range counts {
		out[c] = float64(k) / float64(n)
	}
	return out
}

func TestDynamicMixTracksProfile(t *testing.T) {
	// Dynamic fractions will not exactly equal static mix fractions (control
	// flow revisits some PCs more than others) but must be in the same
	// ballpark.
	for _, name := range []string{"gcc", "fpppp", "perl", "ijpeg"} {
		p, _ := ByName(name)
		mix := measureMix(t, name, 60_000)
		check := func(label string, got, want float64) {
			tol := 0.6*want + 0.02
			if math.Abs(got-want) > tol {
				t.Errorf("%s: %s fraction = %.3f, profile %.3f", name, label, got, want)
			}
		}
		check("branch", mix[isa.ClassBranch], p.Mix.Branch)
		check("load", mix[isa.ClassLoad], p.Mix.Load)
		check("store", mix[isa.ClassStore], p.Mix.Store)
		fp := mix[isa.ClassFPAdd] + mix[isa.ClassFPMul] + mix[isa.ClassFPDiv]
		check("fp", fp, p.Mix.FPFrac())
	}
}

func TestFppppBranchScarcity(t *testing.T) {
	// The paper's headline workload fact: fpppp has roughly one branch per
	// 67 instructions while integer codes have one per 5-6.
	fp := measureMix(t, "fpppp", 80_000)[isa.ClassBranch]
	gcc := measureMix(t, "gcc", 80_000)[isa.ClassBranch]
	if fp > 0.035 {
		t.Errorf("fpppp branch fraction = %.4f, want < 0.035", fp)
	}
	if gcc < 0.12 {
		t.Errorf("gcc branch fraction = %.4f, want > 0.12", gcc)
	}
	if gcc < 4*fp {
		t.Errorf("gcc (%.4f) should be far branchier than fpppp (%.4f)", gcc, fp)
	}
}

func TestPerlHasNoFP(t *testing.T) {
	mix := measureMix(t, "perl", 40_000)
	fp := mix[isa.ClassFPAdd] + mix[isa.ClassFPMul] + mix[isa.ClassFPDiv]
	if fp != 0 {
		t.Errorf("perl FP fraction = %v, want 0", fp)
	}
}

func TestIjpegLowMemory(t *testing.T) {
	ij := measureMix(t, "ijpeg", 40_000)
	gcc := measureMix(t, "gcc", 40_000)
	ijMem := ij[isa.ClassLoad] + ij[isa.ClassStore]
	gccMem := gcc[isa.ClassLoad] + gcc[isa.ClassStore]
	if ijMem >= gccMem {
		t.Errorf("ijpeg memory fraction %.3f should be below gcc %.3f", ijMem, gccMem)
	}
}

func TestDeterminism(t *testing.T) {
	p, _ := ByName("compress")
	a := NewGenerator(p, 99)
	b := NewGenerator(p, 99)
	for i := 0; i < 5000; i++ {
		x, y := a.Next(), b.Next()
		if x.PC != y.PC || x.Class != y.Class || x.Addr != y.Addr ||
			x.Taken != y.Taken || x.Dest != y.Dest {
			t.Fatalf("instr %d diverged: %v vs %v", i, x, y)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	p, _ := ByName("compress")
	a := NewGenerator(p, 1)
	b := NewGenerator(p, 2)
	same := 0
	for i := 0; i < 2000; i++ {
		x, y := a.Next(), b.Next()
		if x.PC == y.PC && x.Class == y.Class {
			same++
		}
	}
	if same == 2000 {
		t.Error("different seeds produced identical streams")
	}
}

func TestStaticProgramStability(t *testing.T) {
	// A revisited PC must decode identically every time.
	p, _ := ByName("li")
	g := NewGenerator(p, 5)
	seen := map[uint64]isa.Class{}
	seenDest := map[uint64]isa.Reg{}
	for i := 0; i < 50_000; i++ {
		in := g.Next()
		if c, ok := seen[in.PC]; ok {
			if c != in.Class {
				t.Fatalf("pc %#x changed class %v -> %v", in.PC, c, in.Class)
			}
			if seenDest[in.PC] != in.Dest {
				t.Fatalf("pc %#x changed dest", in.PC)
			}
		}
		seen[in.PC] = in.Class
		seenDest[in.PC] = in.Dest
	}
	if len(seen) < 100 {
		t.Errorf("static program suspiciously small: %d PCs", len(seen))
	}
}

func TestPCsStayInFootprint(t *testing.T) {
	p, _ := ByName("adpcm")
	g := NewGenerator(p, 7)
	end := CodeBase + uint64(p.CodeFootprint)
	for i := 0; i < 30_000; i++ {
		in := g.Next()
		if in.PC < CodeBase || in.PC >= end {
			t.Fatalf("pc %#x outside [%#x, %#x)", in.PC, CodeBase, end)
		}
		if in.PC%4 != 0 {
			t.Fatalf("misaligned pc %#x", in.PC)
		}
	}
}

func TestAddressesStayInWorkingSet(t *testing.T) {
	p, _ := ByName("swim")
	g := NewGenerator(p, 7)
	end := DataBase + uint64(p.DataWorkingSet) + hotRegionBytes
	for i := 0; i < 30_000; i++ {
		in := g.Next()
		if in.Class.IsMem() {
			if in.Addr < DataBase || in.Addr >= end {
				t.Fatalf("addr %#x outside working set + hot region", in.Addr)
			}
		} else if in.Addr != 0 {
			t.Fatalf("non-memory instr has addr %#x", in.Addr)
		}
	}
}

func TestBranchTargetsConsistent(t *testing.T) {
	p, _ := ByName("m88ksim")
	g := NewGenerator(p, 3)
	targets := map[uint64]uint64{}
	for i := 0; i < 50_000; i++ {
		in := g.Next()
		if in.Class != isa.ClassBranch {
			continue
		}
		if tgt, ok := targets[in.PC]; ok && tgt != in.Target {
			t.Fatalf("branch %#x target changed %#x -> %#x", in.PC, tgt, in.Target)
		}
		targets[in.PC] = in.Target
	}
}

func TestLoopBranchesLoop(t *testing.T) {
	// Loop-closing branches must be taken (LoopLength-1)/LoopLength of the
	// time; overall taken fraction should be substantial.
	p, _ := ByName("swim") // loop-heavy profile
	g := NewGenerator(p, 11)
	taken, branches := 0, 0
	for i := 0; i < 60_000; i++ {
		in := g.Next()
		if in.Class == isa.ClassBranch {
			branches++
			if in.Taken {
				taken++
			}
		}
	}
	if branches == 0 {
		t.Fatal("no branches generated")
	}
	frac := float64(taken) / float64(branches)
	if frac < 0.5 {
		t.Errorf("loop-heavy benchmark taken fraction = %.3f, want > 0.5", frac)
	}
}

func TestWrongPathLifecycle(t *testing.T) {
	p, _ := ByName("gcc")
	g := NewGenerator(p, 13)
	for i := 0; i < 100; i++ {
		g.Next()
	}
	pcBefore := g.pc
	genBefore := g.Generated()

	g.StartWrongPath(CodeBase + 0x80)
	if !g.InWrongPath() {
		t.Fatal("not in wrong path")
	}
	for i := 0; i < 50; i++ {
		in := g.NextWrongPath()
		if !in.WrongPath {
			t.Fatal("wrong-path instruction not marked")
		}
	}
	if g.wrongGen != 50 {
		t.Errorf("wrong-path count = %d", g.wrongGen)
	}
	g.EndWrongPath()

	// Correct-path state is untouched by the excursion.
	if g.pc != pcBefore || g.Generated() != genBefore {
		t.Error("wrong path perturbed correct-path state")
	}
	in := g.Next()
	if in.WrongPath {
		t.Error("correct-path instruction marked wrong-path")
	}
}

func TestWrongPathDoesNotPerturbGroundTruth(t *testing.T) {
	// Two generators with the same seed; one takes a wrong-path excursion.
	// Their subsequent correct paths must match exactly.
	p, _ := ByName("compress")
	a := NewGenerator(p, 21)
	b := NewGenerator(p, 21)
	for i := 0; i < 500; i++ {
		a.Next()
		b.Next()
	}
	b.StartWrongPath(CodeBase + 0x100)
	for i := 0; i < 200; i++ {
		b.NextWrongPath()
	}
	b.EndWrongPath()
	for i := 0; i < 500; i++ {
		x, y := a.Next(), b.Next()
		// The wrong path shares g.rng? It must not: only branch directions
		// and addresses drawn from the dedicated wrong-path RNG are allowed.
		if x.PC != y.PC || x.Taken != y.Taken {
			t.Fatalf("instr %d diverged after wrong-path excursion: pc %#x/%#x", i, x.PC, y.PC)
		}
	}
}

func TestModeGuards(t *testing.T) {
	p, _ := ByName("gcc")
	for name, fn := range map[string]func(g *Generator){
		"NextWrongPath outside": func(g *Generator) { g.NextWrongPath() },
		"EndWrongPath outside":  func(g *Generator) { g.EndWrongPath() },
		"Next inside": func(g *Generator) {
			g.StartWrongPath(CodeBase)
			g.Next()
		},
		"double StartWrongPath": func(g *Generator) {
			g.StartWrongPath(CodeBase)
			g.StartWrongPath(CodeBase)
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn(NewGenerator(p, 1))
		}()
	}
}

func TestSourcesMatchRegisterFiles(t *testing.T) {
	p, _ := ByName("fpppp")
	g := NewGenerator(p, 17)
	for i := 0; i < 30_000; i++ {
		in := g.Next()
		switch {
		case in.Class.IsFP():
			if in.Dest.File != isa.RegFP {
				t.Fatalf("FP op with dest %v", in.Dest)
			}
			if in.Src[0].File != isa.RegFP {
				t.Fatalf("FP op with src0 %v", in.Src[0])
			}
		case in.Class == isa.ClassLoad:
			if in.Src[0].File != isa.RegInt {
				t.Fatalf("load address register %v not integer", in.Src[0])
			}
		case in.Class == isa.ClassBranch:
			if in.Dest.Valid() {
				t.Fatalf("branch with destination %v", in.Dest)
			}
		}
	}
}
