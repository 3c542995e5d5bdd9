// Package snapshot defines the on-disk (and on-wire) container for a
// simulation state capture: the full machine state at a decode-cycle
// boundary, serialized by internal/pipeline, wrapped here in a versioned,
// CRC-checked envelope with a content digest.
//
// The envelope is deliberately dumb: a magic number, a format version, a
// CRC-32C over the JSON body, and the body itself. Everything the body
// means — which structures, which fields, how restore reconstructs the
// machine — is owned by the packages that produce and consume it. What the
// envelope guarantees is that a reader either gets exactly the bytes the
// writer produced, under a version it understands, or a typed error; never
// a silent partial restore.
//
// Check verifies the envelope alone, for a receiver that stores or forwards
// the bytes without restoring them; DecodeBytes verifies the envelope the
// same way and then decodes the body. EncodeBytes builds the envelope in
// one buffer and copies the captured state into it without re-compacting
// it, so a capture is encoded once.
//
// Layout:
//
//	offset  size  field
//	0       4     magic "GSNP"
//	4       4     format version (little-endian uint32)
//	8       4     body length   (little-endian uint32)
//	12      4     CRC-32C (Castagnoli) of the body
//	16      n     body: JSON-encoded Snapshot
package snapshot

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
)

// Version is the current snapshot format version. Restoring a snapshot
// written under any other version fails with a VersionError: state layouts
// are not stable across format bumps, and a half-understood restore is
// worse than a re-run warm-up.
const Version = 1

const (
	magic      = "GSNP"
	headerSize = 16
	// maxBody bounds a decode's allocation: snapshots of the paper's
	// machine are a few hundred kilobytes of JSON; anything near this
	// limit is a corrupt length field, not a real capture.
	maxBody = 1 << 28
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrMagic reports bytes that are not a snapshot at all.
var ErrMagic = errors.New("snapshot: bad magic (not a snapshot file)")

// VersionError reports a snapshot written under a different format version.
type VersionError struct {
	Got, Want uint32
}

func (e *VersionError) Error() string {
	return fmt.Sprintf("snapshot: format version %d not supported (this build reads version %d); re-capture the snapshot", e.Got, e.Want)
}

// CorruptError reports a snapshot whose envelope is well-formed enough to
// identify but whose contents cannot be trusted: truncation, a CRC
// mismatch, or an undecodable body.
type CorruptError struct {
	Reason string
}

func (e *CorruptError) Error() string { return "snapshot: corrupt: " + e.Reason }

// Snapshot is one captured simulation state plus the identity needed to
// check, at restore time, that it is being resumed under a compatible
// configuration.
type Snapshot struct {
	// SpecKey is the content address of the run configuration that produced
	// this capture, with the instruction budget normalized away: two runs
	// that share a warm-up prefix share this key. Restore refuses a
	// snapshot whose key does not match the resuming spec.
	SpecKey string `json:"spec_key"`
	// SpecJSON is the canonical spec for human inspection and error
	// messages; SpecKey is the authoritative identity.
	SpecJSON json.RawMessage `json:"spec_json,omitempty"`
	// Committed is the number of committed instructions at capture: the
	// warm-up length this snapshot encodes.
	Committed uint64 `json:"committed"`
	// State is the opaque machine state (pipeline.CoreState JSON).
	State json.RawMessage `json:"state"`
}

// head is the part of a Snapshot's JSON body before State, in the same
// field order: EncodeBytes marshals it and splices State in after it.
type head struct {
	SpecKey   string          `json:"spec_key"`
	SpecJSON  json.RawMessage `json:"spec_json,omitempty"`
	Committed uint64          `json:"committed"`
}

// EncodeBytes returns the snapshot in envelope form: the header over the
// bytes of json.Marshal(s), so Digest does not depend on how they were
// built. When State is already in the form json.Marshal emits (compact,
// nothing to HTML-escape), as a capture's always is, it is copied into the
// one output buffer without being compacted or validated again, so State
// must hold valid JSON. Any other State goes through json.Marshal.
func (s *Snapshot) EncodeBytes() ([]byte, error) {
	if !spliceable(s.State) {
		body, err := json.Marshal(s)
		if err != nil {
			return nil, fmt.Errorf("snapshot: encoding body: %w", err)
		}
		return seal(append(make([]byte, headerSize, headerSize+len(body)), body...))
	}
	h, err := json.Marshal(head{SpecKey: s.SpecKey, SpecJSON: s.SpecJSON, Committed: s.Committed})
	if err != nil {
		return nil, fmt.Errorf("snapshot: encoding body: %w", err)
	}
	const stateKey = `,"state":`
	b := make([]byte, headerSize, headerSize+len(h)+len(stateKey)+len(s.State))
	b = append(b, h[:len(h)-1]...) // drop the closing brace
	b = append(b, stateKey...)
	b = append(b, s.State...)
	b = append(b, '}')
	return seal(b)
}

// seal fills in the header of b, whose first headerSize bytes are reserved
// for it and the rest are the body.
func seal(b []byte) ([]byte, error) {
	body := b[headerSize:]
	if len(body) > maxBody {
		return nil, fmt.Errorf("snapshot: body of %d bytes exceeds the %d-byte format limit", len(body), maxBody)
	}
	copy(b[0:4], magic)
	binary.LittleEndian.PutUint32(b[4:8], Version)
	binary.LittleEndian.PutUint32(b[8:12], uint32(len(body)))
	binary.LittleEndian.PutUint32(b[12:16], crc32.Checksum(body, castagnoli))
	return b, nil
}

// spliceable reports whether json.Marshal would emit raw, which must be
// valid JSON, unchanged as a json.RawMessage. It would when raw holds no
// white space at all and none of the bytes HTML-safe escaping rewrites
// (<, >, & and the lead byte of U+2028 and U+2029): compacting removes only
// white space, and escaping rewrites only those.
func spliceable(raw []byte) bool {
	if len(raw) == 0 {
		return false
	}
	for _, c := range []byte(" \t\n\r<>&\xe2") {
		if bytes.IndexByte(raw, c) >= 0 {
			return false
		}
	}
	return true
}

// Digest returns the snapshot's content identity: the hex SHA-256 of its
// encoded form. It is the value that joins cache keys of snapshot-seeded
// runs, so a run restored from different state can never alias a cached
// result.
func (s *Snapshot) Digest() (string, error) {
	b, err := s.EncodeBytes()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// Check verifies b's envelope — magic, version, length, no trailing bytes
// and the body's CRC-32C — without decoding the body. It fails with exactly
// the error DecodeBytes returns for the same bytes; an envelope it accepts
// can still fail DecodeBytes only on the JSON body itself.
func Check(b []byte) error {
	_, err := checkedBody(b)
	return err
}

// checkedBody returns the CRC-checked body of envelope b, or Check's
// error. It never allocates: a header claiming more bytes than b holds
// fails before anything is read.
func checkedBody(b []byte) ([]byte, error) {
	if len(b) < headerSize {
		return nil, &CorruptError{Reason: "truncated header"}
	}
	if string(b[0:4]) != magic {
		return nil, ErrMagic
	}
	if v := binary.LittleEndian.Uint32(b[4:8]); v != Version {
		return nil, &VersionError{Got: v, Want: Version}
	}
	n := binary.LittleEndian.Uint32(b[8:12])
	if n > maxBody {
		return nil, &CorruptError{Reason: fmt.Sprintf("body length %d exceeds format limit", n)}
	}
	rest := b[headerSize:]
	if uint64(len(rest)) < uint64(n) {
		return nil, &CorruptError{Reason: "truncated body"}
	}
	body := rest[:n]
	if got, want := crc32.Checksum(body, castagnoli), binary.LittleEndian.Uint32(b[12:16]); got != want {
		return nil, &CorruptError{Reason: fmt.Sprintf("body checksum %08x, header says %08x", got, want)}
	}
	if extra := len(rest) - int(n); extra != 0 {
		return nil, &CorruptError{Reason: fmt.Sprintf("%d trailing bytes after body", extra)}
	}
	return body, nil
}

// DecodeBytes decodes one snapshot, verifying the envelope as Check does
// and then the body. Any failure is typed: ErrMagic, *VersionError, or
// *CorruptError. It never returns a partially-filled snapshot alongside a
// nil error, and the snapshot it returns shares no memory with b.
func DecodeBytes(b []byte) (*Snapshot, error) {
	body, err := checkedBody(b)
	if err != nil {
		return nil, err
	}
	var s Snapshot
	if err := json.Unmarshal(body, &s); err != nil {
		return nil, &CorruptError{Reason: "undecodable body: " + err.Error()}
	}
	if len(s.State) == 0 {
		return nil, &CorruptError{Reason: "empty state"}
	}
	return &s, nil
}

// WriteFile atomically-ish writes the snapshot to path (temp file + rename
// within the same directory), so a crash mid-write never leaves a
// truncated snapshot under the final name.
func WriteFile(path string, s *Snapshot) error {
	b, err := s.EncodeBytes()
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}
