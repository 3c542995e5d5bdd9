package snapshot

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
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

// marshalEnvelope is the reference encoding EncodeBytes must reproduce: the
// header over json.Marshal(s).
func marshalEnvelope(t testing.TB, s *Snapshot) []byte {
	t.Helper()
	body, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	hdr := make([]byte, headerSize, headerSize+len(body))
	copy(hdr, magic)
	binary.LittleEndian.PutUint32(hdr[4:8], Version)
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(len(body)))
	binary.LittleEndian.PutUint32(hdr[12:16], crc32.Checksum(body, castagnoli))
	return append(hdr, body...)
}

// TestEncodeBytesMatchesMarshal: states json.Marshal would rewrite (white
// space, HTML-escaped characters, a null state) encode exactly as
// json.Marshal encodes them, and so do the spliced compact ones.
func TestEncodeBytesMatchesMarshal(t *testing.T) {
	for _, state := range []string{
		`{"cycles":12345,"rob":[1,2,3]}`,
		`{ "cycles": 1 }`,
		`{"name":"a b"}`,
		`{"op":"a<b&&c>d"}`,
		"{\"sep\":\"\u2028\u2029\"}",
		`[1,2,"\"<"]`,
		``, // a nil state, which encodes as null
	} {
		s := sample()
		s.State = []byte(state)
		if state == "" {
			s.State = nil
		}
		s.SpecJSON = []byte(`{ "benchmark": "gcc" }`)
		got, err := s.EncodeBytes()
		if err != nil {
			t.Fatalf("state %q: %v", state, err)
		}
		if want := marshalEnvelope(t, s); !bytes.Equal(got, want) {
			t.Errorf("state %q: EncodeBytes = %q, want %q", state, got[headerSize:], want[headerSize:])
		}
	}
}

// FuzzSnapshot feeds arbitrary bytes to the decoder: it must never panic,
// Check must fail exactly where DecodeBytes fails outside the JSON body,
// and whenever decoding succeeds, re-encoding the result must equal the
// header over json.Marshal of it and decode again (the envelope is
// canonical for what it accepts).
func FuzzSnapshot(f *testing.F) {
	good, _ := sample().EncodeBytes()
	f.Add(good)
	f.Add([]byte(magic))
	f.Add([]byte{})
	bad := append([]byte{}, good...)
	bad[20] ^= 0xff
	f.Add(bad)
	spaced := sample()
	spaced.State = []byte(`{ "op": "a<b" }`)
	f.Add(marshalEnvelope(f, spaced))
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
			if !errors.As(err, &ce) || !strings.HasPrefix(ce.Reason, "undecodable body") && ce.Reason != "empty state" {
				t.Fatalf("Check accepted an envelope DecodeBytes rejects outside the body: %v", err)
			}
			return
		}
		b, err := s.EncodeBytes()
		if err != nil {
			t.Fatalf("decoded snapshot fails to re-encode: %v", err)
		}
		if want := marshalEnvelope(t, s); !bytes.Equal(b, want) {
			t.Fatalf("EncodeBytes differs from the envelope of json.Marshal")
		}
		if _, err := DecodeBytes(b); err != nil {
			t.Fatalf("re-encoded snapshot fails to decode: %v", err)
		}
	})
}
