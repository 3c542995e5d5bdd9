package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func sample() *Snapshot {
	return &Snapshot{
		SpecKey:   "abc123",
		SpecJSON:  []byte(`{"benchmark":"gcc"}`),
		Committed: 50_000,
		State:     []byte(`{"cycles":12345,"rob":[1,2,3]}`),
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

// FuzzSnapshot feeds arbitrary bytes to the decoder: it must never panic,
// and whenever it succeeds, re-encoding the result must decode again (the
// envelope is canonical for what it accepts).
func FuzzSnapshot(f *testing.F) {
	good, _ := sample().EncodeBytes()
	f.Add(good)
	f.Add([]byte(magic))
	f.Add([]byte{})
	bad := append([]byte{}, good...)
	bad[20] ^= 0xff
	f.Add(bad)
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeBytes(data)
		if err != nil {
			return
		}
		b, err := s.EncodeBytes()
		if err != nil {
			t.Fatalf("decoded snapshot fails to re-encode: %v", err)
		}
		if _, err := DecodeBytes(b); err != nil {
			t.Fatalf("re-encoded snapshot fails to decode: %v", err)
		}
	})
}
