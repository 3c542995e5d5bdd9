package workload

import (
	"bytes"
	"runtime"
	"testing"
	"unsafe"

	"galsim/internal/snapshot"
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

func captureSource(s Snapshotter) []byte {
	e := snapshot.NewEncoder(nil)
	s.AppendSourceState(e)
	return e.Bytes()
}

// A static-program record stays 32 bytes with its visit order in it: the
// order fills the padding after the bools.
func TestStaticInstrIs32Bytes(t *testing.T) {
	if n := unsafe.Sizeof(staticInstr{}); n != 32 {
		t.Fatalf("staticInstr is %d bytes, want 32", n)
	}
}

// A restored generator recaptures identically, holds the same static
// program, recency rings and destination counters (rebuilt by
// materializing the captured visit order again), and continues the same
// stream.
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
	if orig.materialized == 0 {
		t.Fatal("empty static program after 5000 instructions")
	}
	st := captureSource(orig)
	restored := gccGenerator(t)
	d := snapshot.NewDecoder(st)
	if restored.RestoreSourceState(d); d.Finish() != nil {
		t.Fatal(d.Err())
	}
	if got := captureSource(restored); !bytes.Equal(got, st) {
		t.Fatal("recapture of a restored generator differs from the capture")
	}
	if restored.recentInt != orig.recentInt || restored.recentFP != orig.recentFP ||
		restored.destCtr != orig.destCtr || restored.fpDestCtr != orig.fpDestCtr {
		t.Fatal("re-materialization did not rebuild the recency rings and destination counters")
	}
	for p, page := range orig.program {
		if page != nil && *page != *restored.program[p] {
			t.Fatalf("static program page %d differs after restore", p)
		}
	}
	for i := 0; i < 5000; i++ {
		a, b := orig.Next(), restored.Next()
		if *a != *b {
			t.Fatalf("instruction %d after restore: %v, want %v", i, b, a)
		}
	}
}

// Snapshots are outside input: a static-program entry outside the code or
// repeated is rejected rather than indexing the table.
func TestRestoreRejectsBadProgramEntries(t *testing.T) {
	g := gccGenerator(t)
	size := int((g.codeEnd() - CodeBase) / 4)
	// body is a fresh generator's section with the program visiting idx
	// (instruction indices from CodeBase) in order.
	body := func(idx []int) []byte {
		e := snapshot.NewEncoder(nil)
		for _, v := range []uint64{g.rngSrc.n, g.wpSrc.n, g.pc, g.wpPC} {
			e.Uvarint(v)
		}
		e.Bool(false)
		e.Uvarint(0)
		e.Uvarint(0)
		e.Uvarint(0)
		e.Uvarint(uint64(len(idx)))
		prev := 0
		for _, i := range idx {
			e.Int(i - prev)
			prev = i
		}
		e.Uvarint(0)
		return e.Bytes()
	}
	restore := func(b []byte) error {
		d := snapshot.NewDecoder(b)
		gccGenerator(t).RestoreSourceState(d)
		return d.Finish()
	}
	for _, c := range []struct {
		name string
		idx  []int
	}{
		{"below code base", []int{-1}},
		{"at code end", []int{size}},
		{"far past code end", []int{size + 1<<28}},
		{"repeated", []int{2, 2}},
	} {
		if err := restore(body(c.idx)); err == nil {
			t.Errorf("%s: restore of program %v succeeded", c.name, c.idx)
		}
	}
	if err := restore(body([]int{0, size - 1})); err != nil {
		t.Errorf("restore of the first and last code pcs: %v", err)
	}
}
