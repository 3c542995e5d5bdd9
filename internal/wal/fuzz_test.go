package wal

import (
	"bytes"
	"testing"
)

// FuzzWALRecord fuzzes the record framing both ways, through the frame
// reader replay uses: any payload must encode→read to identical bytes, and
// reading arbitrary bytes must never panic — corrupt headers, lying length
// fields and flipped checksum bits all have to end the read, because this
// is exactly what the torn tail of a crashed coordinator's journal looks
// like.
func FuzzWALRecord(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("hello"))
	f.Add(EncodeRecord([]byte("a journal record")))
	f.Add(EncodeRecord(nil))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0})    // absurd length field
	f.Add([]byte{5, 0, 0, 0, 1, 2, 3, 4, 'a', 'b'})      // short payload
	f.Add(append(EncodeRecord([]byte("x")), 0xDE, 0xAD)) // trailing garbage
	f.Add(bytes.Repeat([]byte{0}, headerSize))           // zero-length, zero-CRC

	f.Fuzz(func(t *testing.T, data []byte) {
		// Round-trip: data as a payload, read back the way replay reads a
		// segment, with nothing left over.
		if len(data) <= MaxRecordBytes {
			r := bytes.NewReader(EncodeRecord(data))
			payload, ok := readRecord(r)
			if !ok {
				t.Fatal("read of a freshly encoded record failed")
			}
			if !bytes.Equal(payload, data) {
				t.Fatalf("round-trip changed payload: %q -> %q", data, payload)
			}
			if r.Len() != 0 {
				t.Fatalf("read left %d frame bytes unread", r.Len())
			}
		}
		// Adversarial: data as a (possibly corrupt) segment. Must not panic;
		// a successful read must re-encode to the bytes it consumed.
		r := bytes.NewReader(data)
		if payload, ok := readRecord(r); ok {
			n := len(data) - r.Len()
			if again := EncodeRecord(payload); !bytes.Equal(again, data[:n]) {
				t.Fatalf("valid frame did not re-encode identically")
			}
		}
	})
}
