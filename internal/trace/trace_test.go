package trace

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"galsim/internal/isa"
	"galsim/internal/workload"
)

// buildTrace encodes a header plus the given events via the Writer.
func buildTrace(t *testing.T, meta Meta, write func(*Writer)) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, meta)
	if err != nil {
		t.Fatal(err)
	}
	write(w)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func readAll(t *testing.T, data []byte) (Meta, []Record) {
	t.Helper()
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	var recs []Record
	for {
		rec, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, rec)
	}
	return r.Meta(), recs
}

func TestRoundTripRecords(t *testing.T) {
	meta := Meta{Name: "unit", Instructions: 123, SpecJSON: []byte(`{"benchmark":"unit"}`)}
	ir := func(class isa.Class, pc uint64) *isa.Instr { return isa.NewInstr(0, pc, class) }

	load := ir(isa.ClassLoad, 0x400010)
	load.Dest = isa.Reg{File: isa.RegFP, Index: 7}
	load.Src[0] = isa.Reg{File: isa.RegInt, Index: 3}
	load.Addr = 0x1000_0008

	br := ir(isa.ClassBranch, 0x400014)
	br.Src[0] = isa.Reg{File: isa.RegInt, Index: 31}
	br.Taken = true
	br.Target = 0x400000 // backward branch: negative delta

	wp := ir(isa.ClassStore, 0x400018)
	wp.WrongPath = true
	wp.Src[0] = isa.Reg{File: isa.RegInt, Index: 1}
	wp.Src[1] = isa.Reg{File: isa.RegFP, Index: 31}
	wp.Addr = 0x0FFF_FFF8 // address below the previous one: negative delta

	data := buildTrace(t, meta, func(w *Writer) {
		w.Instr(load)
		w.Instr(br)
		w.StartWrongPath(0x400018)
		w.Instr(wp)
		w.EndWrongPath(0x40001C)
	})

	gotMeta, recs := readAll(t, data)
	if gotMeta.Name != meta.Name || gotMeta.Instructions != meta.Instructions ||
		!bytes.Equal(gotMeta.SpecJSON, meta.SpecJSON) {
		t.Errorf("meta round trip: got %+v want %+v", gotMeta, meta)
	}
	want := []Record{
		{Kind: KindInstr, Class: isa.ClassLoad, PC: load.PC, Dest: load.Dest, Src: load.Src, Addr: load.Addr},
		{Kind: KindInstr, Class: isa.ClassBranch, PC: br.PC, Src: br.Src, Taken: true, Target: br.Target},
		{Kind: KindStartWrongPath, Target: 0x400018},
		{Kind: KindInstr, WrongPath: true, Class: isa.ClassStore, PC: wp.PC, Src: wp.Src, Addr: wp.Addr},
		{Kind: KindEndWrongPath, Target: 0x40001C},
	}
	if !reflect.DeepEqual(recs, want) {
		t.Errorf("records round trip:\ngot  %+v\nwant %+v", recs, want)
	}
}

func TestReaderRejectsMalformed(t *testing.T) {
	valid := buildTrace(t, Meta{Name: "x"}, func(w *Writer) {
		in := isa.NewInstr(0, 0x400000, isa.ClassIntALU)
		w.Instr(in)
	})
	cases := map[string][]byte{
		"empty":          {},
		"short magic":    valid[:2],
		"bad magic":      append([]byte("NOPE"), valid[4:]...),
		"bad version":    append(append([]byte{}, valid[:4]...), append([]byte{99}, valid[5:]...)...),
		"truncated meta": valid[:6],
	}
	for name, data := range cases {
		if _, err := NewReader(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: NewReader accepted malformed input", name)
		}
	}
	// Truncating anywhere inside the record region must produce an error
	// from Next, never a panic or a silent success.
	r, err := NewReader(bytes.NewReader(valid))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err != nil {
		t.Fatalf("valid record failed: %v", err)
	}
	headerLen := len(buildTrace(t, Meta{Name: "x"}, func(*Writer) {}))
	for cut := headerLen + 1; cut < len(valid); cut++ {
		r, err := NewReader(bytes.NewReader(valid[:cut]))
		if err != nil {
			t.Fatalf("cut %d: header failed: %v", cut, err)
		}
		if _, err := r.Next(); err == nil || err == io.EOF {
			t.Errorf("cut %d: truncated record gave err=%v, want decode error", cut, err)
		}
	}
}

func TestParseRejectsEmptyStream(t *testing.T) {
	data := buildTrace(t, Meta{Name: "empty"}, func(w *Writer) {})
	if _, err := Parse(data); err == nil {
		t.Error("Parse accepted a trace with no correct-path instructions")
	}
}

// driveSource exercises an InstrSource with a fixed call script, returning
// every produced instruction (correct and wrong path) in order.
func driveSource(src workload.InstrSource) []isa.Instr {
	var out []isa.Instr
	grab := func(in *isa.Instr) { out = append(out, *in) }
	for i := 0; i < 200; i++ {
		grab(src.Next())
	}
	src.StartWrongPath(src.CurrentPC() + 64)
	for i := 0; i < 30; i++ {
		grab(src.NextWrongPath())
	}
	src.EndWrongPath()
	for i := 0; i < 100; i++ {
		grab(src.Next())
	}
	src.StartWrongPath(0)
	grab(src.NextWrongPath())
	src.EndWrongPath()
	for i := 0; i < 50; i++ {
		grab(src.Next())
	}
	return out
}

// TestRecorderReplayEquivalence drives a generator through a recorder, then
// replays the trace with the same call script and requires an identical
// instruction stream — the unit-level version of the end-to-end round-trip
// determinism test in the galsim package.
func TestRecorderReplayEquivalence(t *testing.T) {
	prof, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w, err := NewWriter(&buf, Meta{Name: "gcc"})
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder(workload.NewGenerator(prof, 1), w)
	want := driveSource(rec)
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}

	tr, err := Parse(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	got := driveSource(NewReplaySource(tr))
	if len(got) != len(want) {
		t.Fatalf("replay produced %d instructions, recorded %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("instruction %d diverged:\nrecorded %+v\nreplayed %+v", i, want[i], got[i])
		}
	}
}

// TestReplayWrapsShortTrace checks that a replay outliving its trace wraps
// to the beginning instead of running dry.
func TestReplayWrapsShortTrace(t *testing.T) {
	prof, err := workload.ByName("adpcm")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w, err := NewWriter(&buf, Meta{Name: "adpcm"})
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder(workload.NewGenerator(prof, 1), w)
	first := *rec.Next()
	for i := 0; i < 9; i++ {
		rec.Next()
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	tr, err := Parse(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	src := NewReplaySource(tr)
	for i := 0; i < 10; i++ {
		src.Next()
	}
	if got := *src.Next(); got != first {
		t.Errorf("wrapped replay instr = %+v, want the stream's first %+v", got, first)
	}
	if src.Wrapped() != 1 {
		t.Errorf("Wrapped() = %d, want 1", src.Wrapped())
	}
}

// TestFileDigestIsContentAddressed: a loaded trace's digest is the SHA-256 of
// the file's bytes, so the same bytes at two paths (one in a sub-directory)
// give one content address.
func TestFileDigestIsContentAddressed(t *testing.T) {
	dir := t.TempDir()
	data := buildTrace(t, Meta{Name: "x"}, func(w *Writer) {
		w.Instr(isa.NewInstr(0, 0x400000, isa.ClassIntALU))
	})
	a := filepath.Join(dir, "a.trace")
	b := filepath.Join(dir, "sub", "b.trace")
	if err := os.Mkdir(filepath.Dir(b), 0o755); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{a, b} {
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	ta, err := Load(a)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := Load(b)
	if err != nil {
		t.Fatal(err)
	}
	if ta.Digest() != tb.Digest() {
		t.Errorf("equal contents hashed differently: %s vs %s", ta.Digest(), tb.Digest())
	}
	sum := sha256.Sum256(data)
	if want := hex.EncodeToString(sum[:]); ta.Digest() != want {
		t.Errorf("digest %q, want the SHA-256 of the file's bytes %q", ta.Digest(), want)
	}
}
