package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"galsim/internal/simtime"
)

func sample() *Snapshot {
	return &Snapshot{
		SpecKey:   "abc123",
		SpecJSON:  []byte(`{"benchmark":"gcc"}`),
		Committed: 50_000,
		State:     []byte{0x01, 0x80, 0x02, 0x00, 0x7f, 0x55},
	}
}

func TestRoundTrip(t *testing.T) {
	s := sample()
	b, err := s.EncodeBytes()
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeBytes(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.SpecKey != s.SpecKey || got.Committed != s.Committed ||
		!bytes.Equal(got.State, s.State) || !bytes.Equal(got.SpecJSON, s.SpecJSON) {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, s)
	}
	d1, err := s.Digest()
	if err != nil {
		t.Fatal(err)
	}
	d2, _ := got.Digest()
	if d1 != d2 || len(d1) != 64 {
		t.Fatalf("digest not stable across round trip: %q vs %q", d1, d2)
	}
	// Any content change must change the digest.
	s.Committed++
	if d3, _ := s.Digest(); d3 == d1 {
		t.Fatal("digest unchanged after state change")
	}
}

func TestFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "warm.gsnp")
	s := sample()
	if err := WriteFile(path, s); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeBytes(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.SpecKey != s.SpecKey {
		t.Fatalf("file round trip: got key %q", got.SpecKey)
	}
}

func TestBadMagic(t *testing.T) {
	b, _ := sample().EncodeBytes()
	b[0] = 'X'
	if _, err := DecodeBytes(b); !errors.Is(err, ErrMagic) {
		t.Fatalf("want ErrMagic, got %v", err)
	}
}

func TestVersionSkew(t *testing.T) {
	b, _ := sample().EncodeBytes()
	binary.LittleEndian.PutUint32(b[4:8], Version+1)
	var ve *VersionError
	if _, err := DecodeBytes(b); !errors.As(err, &ve) {
		t.Fatalf("want VersionError, got %v", err)
	} else if ve.Got != Version+1 || ve.Want != Version {
		t.Fatalf("VersionError fields: %+v", ve)
	}
}

func TestTruncation(t *testing.T) {
	b, _ := sample().EncodeBytes()
	var ce *CorruptError
	// Every possible truncation point must produce a typed error, never a
	// partial decode.
	for n := 0; n < len(b); n++ {
		if _, err := DecodeBytes(b[:n]); err == nil {
			t.Fatalf("truncation to %d bytes decoded successfully", n)
		} else if n >= 4 && !errors.As(err, &ce) {
			t.Fatalf("truncation to %d bytes: want CorruptError, got %v", n, err)
		}
	}
}

func TestCorruption(t *testing.T) {
	b, _ := sample().EncodeBytes()
	// Flip one body byte: CRC must catch it.
	b[headerSize+5] ^= 0x40
	var ce *CorruptError
	if _, err := DecodeBytes(b); !errors.As(err, &ce) {
		t.Fatalf("want CorruptError after body flip, got %v", err)
	}
}

func TestTrailingGarbage(t *testing.T) {
	b, _ := sample().EncodeBytes()
	b = append(b, 0xde, 0xad)
	var ce *CorruptError
	if _, err := DecodeBytes(b); !errors.As(err, &ce) {
		t.Fatalf("want CorruptError for trailing bytes, got %v", err)
	}
}

func TestOversizedLength(t *testing.T) {
	b, _ := sample().EncodeBytes()
	binary.LittleEndian.PutUint32(b[8:12], maxBody+1)
	var ce *CorruptError
	if _, err := DecodeBytes(b); !errors.As(err, &ce) {
		t.Fatalf("want CorruptError for oversized length, got %v", err)
	}
}

// TestForgedLengthAllocatesNothing: a bare header claiming the largest body
// the format allows is rejected before a body buffer is allocated.
func TestForgedLengthAllocatesNothing(t *testing.T) {
	forged := make([]byte, headerSize)
	copy(forged, magic)
	binary.LittleEndian.PutUint32(forged[4:8], Version)
	binary.LittleEndian.PutUint32(forged[8:12], maxBody)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := DecodeBytes(forged)
	runtime.ReadMemStats(&after)
	if err == nil || err.Error() != "snapshot: corrupt: truncated body" {
		t.Fatalf("forged header: got %v, want the truncated-body error", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("rejecting a forged header allocated %d bytes", got)
	}
	if err2 := Check(forged); err2 == nil || err2.Error() != err.Error() {
		t.Fatalf("Check(forged) = %v, want %v", err2, err)
	}
}

// TestEncodeBytesIsTheCapturedEnvelope: a capture's envelope is built once,
// and EncodeBytes hands that buffer back for as long as the fields hold
// what it says; a changed field encodes anew, as a snapshot built from the
// fields alone would.
func TestEncodeBytesIsTheCapturedEnvelope(t *testing.T) {
	want := sample()
	s, err := Capture(want.SpecKey, want.SpecJSON, want.Committed, func(e *Encoder) { e.b = append(e.b, want.State...) })
	if err != nil {
		t.Fatal(err)
	}
	b1, err := s.EncodeBytes()
	if err != nil {
		t.Fatal(err)
	}
	b2, _ := s.EncodeBytes()
	if &b1[0] != &b2[0] || &s.State[0] != &b1[len(b1)-len(s.State)] {
		t.Fatal("EncodeBytes copied the captured envelope")
	}
	if ref, _ := want.EncodeBytes(); !bytes.Equal(b1, ref) {
		t.Fatalf("captured envelope %x, want %x", b1, ref)
	}
	s.Committed++
	want.Committed++
	b3, _ := s.EncodeBytes()
	if ref, _ := want.EncodeBytes(); !bytes.Equal(b3, ref) || &b3[0] == &b1[0] {
		t.Fatal("a changed snapshot did not encode anew")
	}
}

// TestVersion1Refused: a version-1 snapshot (a JSON body) fails every
// reader with VersionError's text, before its body is looked at.
func TestVersion1Refused(t *testing.T) {
	body := []byte(`{"spec_key":"abc123","committed":50000,"state":{"records":[]}}`)
	v1 := make([]byte, headerSize, headerSize+len(body))
	copy(v1, magic)
	binary.LittleEndian.PutUint32(v1[4:8], 1)
	binary.LittleEndian.PutUint32(v1[8:12], uint32(len(body)))
	binary.LittleEndian.PutUint32(v1[12:16], crc32.Checksum(body, castagnoli))
	v1 = append(v1, body...)
	const want = "snapshot: format version 1 not supported (this build reads version 2); re-capture the snapshot"
	for name, read := range map[string]func([]byte) error{
		"Check":       Check,
		"Parse":       func(b []byte) error { _, err := Parse(b); return err },
		"DecodeBytes": func(b []byte) error { _, err := DecodeBytes(b); return err },
	} {
		var ve *VersionError
		if err := read(v1); !errors.As(err, &ve) || err.Error() != want {
			t.Errorf("%s(version 1) = %v, want %q", name, err, want)
		}
	}
}

// TestDecoderIsStrict: each field has one encoding, and a count larger than
// the bytes left fails before anything is sized by it.
func TestDecoderIsStrict(t *testing.T) {
	e := NewEncoder(nil)
	e.Uvarint(300)
	e.Int(-5)
	e.Time(simtime.Never)
	e.Time(0)
	e.Time(-7)
	e.F64(math.Copysign(0, -1))
	e.Bool(true)
	e.String("fetch")
	e.Bitmap(11, func(i int) bool { return i%3 == 0 })
	d := NewDecoder(e.Bytes())
	if v := d.Uvarint(); v != 300 {
		t.Fatalf("Uvarint = %d", v)
	}
	if v := d.Int(); v != -5 {
		t.Fatalf("Int = %d", v)
	}
	if a, b, c := d.Time(), d.Time(), d.Time(); a != simtime.Never || b != 0 || c != -7 {
		t.Fatalf("times = %v, %v, %v", a, b, c)
	}
	if v := d.F64(); math.Float64bits(v) != math.Float64bits(math.Copysign(0, -1)) {
		t.Fatalf("F64 = %v", v)
	}
	if !d.Bool() || d.String() != "fetch" {
		t.Fatal("Bool or String mismatch")
	}
	bm := d.Bitmap(11)
	for i := range 11 {
		if Bit(bm, i) != (i%3 == 0) {
			t.Fatalf("bit %d wrong", i)
		}
	}
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}

	for name, read := range map[string]struct {
		b    []byte
		read func(*Decoder)
	}{
		"overlong varint":    {[]byte{0x80, 0x00}, func(d *Decoder) { d.Uvarint() }},
		"bool 2":             {[]byte{2}, func(d *Decoder) { d.Bool() }},
		"never spelled long": {binary.AppendUvarint(nil, zigzag(int64(simtime.Never))+1), func(d *Decoder) { d.Time() }},
		"bitmap padding":     {[]byte{0xff, 0x08}, func(d *Decoder) { d.Bitmap(11) }},
		"count past the end": {[]byte{0x05, 1, 2, 3, 4}, func(d *Decoder) { d.Len(1) }},
		"trailing bytes":     {[]byte{0x01, 0x02}, func(d *Decoder) { d.Uvarint() }},
	} {
		d := NewDecoder(read.b)
		read.read(d)
		if err := d.Finish(); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}

	// A count claiming the largest varint allocates nothing.
	forged := binary.AppendUvarint(nil, math.MaxUint64)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	d = NewDecoder(forged)
	n := d.Len(1)
	runtime.ReadMemStats(&after)
	if n != 0 || d.Err() == nil || after.TotalAlloc-before.TotalAlloc >= 1<<20 {
		t.Fatalf("forged count: n=%d err=%v, %d bytes allocated", n, d.Err(), after.TotalAlloc-before.TotalAlloc)
	}
}

// FuzzSnapshot feeds arbitrary bytes to the envelope readers: they must
// never panic, Check must fail exactly where Parse fails outside the head,
// and whenever parsing succeeds, a snapshot built from the parsed fields
// alone must encode to the same bytes (the envelope is canonical for what
// it accepts) and parse again.
func FuzzSnapshot(f *testing.F) {
	good, _ := sample().EncodeBytes()
	f.Add(good)
	f.Add([]byte(magic))
	f.Add([]byte{})
	bad := append([]byte{}, good...)
	bad[20] ^= 0xff
	f.Add(bad)
	nospec := sample()
	nospec.SpecJSON = nil
	b, _ := nospec.EncodeBytes()
	f.Add(b)
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeBytes(data)
		if cerr := Check(data); cerr != nil {
			if err == nil || err.Error() != cerr.Error() || reflect.TypeOf(err) != reflect.TypeOf(cerr) {
				t.Fatalf("Check = %v, DecodeBytes = %v", cerr, err)
			}
			return
		}
		if err != nil {
			var ce *CorruptError
			if !errors.As(err, &ce) || ce.Reason != "truncated head" && ce.Reason != "empty state" {
				t.Fatalf("Check accepted an envelope DecodeBytes rejects outside the head: %v", err)
			}
			return
		}
		fresh := &Snapshot{SpecKey: s.SpecKey, SpecJSON: s.SpecJSON, Committed: s.Committed, State: s.State}
		b, err := fresh.EncodeBytes()
		if err != nil {
			t.Fatalf("decoded snapshot fails to re-encode: %v", err)
		}
		if !bytes.Equal(b, data) {
			t.Fatalf("re-encoding differs from the parsed envelope")
		}
		if _, err := Parse(b); err != nil {
			t.Fatalf("re-encoded snapshot fails to parse: %v", err)
		}
	})
}
