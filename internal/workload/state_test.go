package workload

import (
	"reflect"
	"runtime"
	"testing"
)

func gccGenerator(t *testing.T) *Generator {
	t.Helper()
	p, err := ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	return NewGenerator(p, 7)
}

// A validated profile with a large code footprint costs little until its
// code is visited: the static program is allocated page by page.
func TestNewGeneratorLargeFootprintAllocatesLittle(t *testing.T) {
	p, err := ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	p.CodeFootprint = 64 << 20
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	g := NewGenerator(p, 1)
	runtime.ReadMemStats(&after)
	if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
		t.Errorf("NewGenerator at a 64 MiB footprint allocated %d bytes, want < 1 MiB", d)
	}
	g.Next()
}

// The capture lists the static program in PC order, and a restored
// generator recaptures identically and continues the same stream.
func TestGeneratorSnapshotRoundTrip(t *testing.T) {
	orig := gccGenerator(t)
	for i := 0; i < 5000; i++ {
		orig.Next()
	}
	orig.StartWrongPath(CodeBase + 4096)
	for i := 0; i < 20; i++ {
		orig.NextWrongPath()
	}
	orig.EndWrongPath()
	st := orig.CaptureState()
	if len(st.Program) == 0 {
		t.Fatal("empty static program after 5000 instructions")
	}
	for i := 1; i < len(st.Program); i++ {
		if st.Program[i].PC <= st.Program[i-1].PC {
			t.Fatalf("program entry %d at pc %#x follows %#x", i, st.Program[i].PC, st.Program[i-1].PC)
		}
	}
	restored := gccGenerator(t)
	if err := restored.RestoreState(st); err != nil {
		t.Fatal(err)
	}
	if got := restored.CaptureState(); !reflect.DeepEqual(got, st) {
		t.Fatal("recapture of a restored generator differs from the capture")
	}
	for i := 0; i < 5000; i++ {
		a, b := orig.Next(), restored.Next()
		if *a != *b {
			t.Fatalf("instruction %d after restore: %v, want %v", i, b, a)
		}
	}
}

// Snapshots are outside input: a static-program entry outside the code,
// misaligned or repeated is rejected rather than indexing the table.
func TestRestoreRejectsBadProgramEntries(t *testing.T) {
	g := gccGenerator(t)
	end := g.codeEnd()
	cases := []struct {
		name string
		pcs  []uint64
	}{
		{"below code base", []uint64{CodeBase - 4}},
		{"zero", []uint64{0}},
		{"at code end", []uint64{end}},
		{"far past code end", []uint64{end + 1<<30}},
		{"misaligned", []uint64{CodeBase + 2}},
		{"repeated", []uint64{CodeBase + 8, CodeBase + 8}},
	}
	// A fresh generator's capture carries the RNG draws its construction
	// made, so only the program entries below can fail the restore.
	fresh := g.CaptureState()
	for _, c := range cases {
		st := fresh
		st.Program = nil
		for _, pc := range c.pcs {
			st.Program = append(st.Program, StaticInstrState{PC: pc})
		}
		if err := gccGenerator(t).RestoreState(st); err == nil {
			t.Errorf("%s: restore of program pcs %#x succeeded", c.name, c.pcs)
		}
	}
	ok := fresh
	ok.Program = []StaticInstrState{{PC: CodeBase}, {PC: end - 4}}
	if err := gccGenerator(t).RestoreState(ok); err != nil {
		t.Errorf("restore of the first and last code pcs: %v", err)
	}
}
