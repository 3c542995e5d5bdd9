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
	"io"
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

// Encode writes the snapshot in envelope form.
func (s *Snapshot) Encode(w io.Writer) error {
	body, err := json.Marshal(s)
	if err != nil {
		return fmt.Errorf("snapshot: encoding body: %w", err)
	}
	if len(body) > maxBody {
		return fmt.Errorf("snapshot: body of %d bytes exceeds the %d-byte format limit", len(body), maxBody)
	}
	var hdr [headerSize]byte
	copy(hdr[0:4], magic)
	binary.LittleEndian.PutUint32(hdr[4:8], Version)
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(len(body)))
	binary.LittleEndian.PutUint32(hdr[12:16], crc32.Checksum(body, castagnoli))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err = w.Write(body)
	return err
}

// EncodeBytes returns the snapshot in envelope form.
func (s *Snapshot) EncodeBytes() ([]byte, error) {
	var buf bytes.Buffer
	if err := s.Encode(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
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

// Decode reads one snapshot, verifying magic, version and checksum. Any
// failure is typed: ErrMagic, *VersionError, or *CorruptError. It never
// returns a partially-filled snapshot alongside a nil error.
func Decode(r io.Reader) (*Snapshot, error) {
	var hdr [headerSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, &CorruptError{Reason: "truncated header"}
		}
		return nil, err
	}
	if string(hdr[0:4]) != magic {
		return nil, ErrMagic
	}
	if v := binary.LittleEndian.Uint32(hdr[4:8]); v != Version {
		return nil, &VersionError{Got: v, Want: Version}
	}
	n := binary.LittleEndian.Uint32(hdr[8:12])
	if n > maxBody {
		return nil, &CorruptError{Reason: fmt.Sprintf("body length %d exceeds format limit", n)}
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, &CorruptError{Reason: "truncated body"}
		}
		return nil, err
	}
	if got, want := crc32.Checksum(body, castagnoli), binary.LittleEndian.Uint32(hdr[12:16]); got != want {
		return nil, &CorruptError{Reason: fmt.Sprintf("body checksum %08x, header says %08x", got, want)}
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

// DecodeBytes decodes a snapshot from memory, additionally rejecting
// trailing garbage (a file-level concern Decode leaves to the caller).
func DecodeBytes(b []byte) (*Snapshot, error) {
	r := bytes.NewReader(b)
	s, err := Decode(r)
	if err != nil {
		return nil, err
	}
	if r.Len() != 0 {
		return nil, &CorruptError{Reason: fmt.Sprintf("%d trailing bytes after body", r.Len())}
	}
	return s, nil
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
