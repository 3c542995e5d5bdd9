// Package snapshot defines the on-disk (and on-wire) container for a
// simulation state capture: the full machine state at a decode-cycle
// boundary, wrapped in a versioned, CRC-checked envelope with a content
// digest, and the binary codec (Encoder, Decoder) each owning package
// writes and reads its section of the state with.
//
// The envelope is deliberately dumb: a magic number, a format version, a
// CRC-32C over the body, and the body itself. What the state means — which
// structures, which fields, how restore reconstructs the machine — is owned
// by the packages that produce and consume it. What the envelope
// guarantees is that a reader either gets exactly the bytes the writer
// produced, under a version it understands, or a typed error; never a
// silent partial restore.
//
// Check verifies the envelope alone, for a receiver that stores or forwards
// the bytes without restoring them; Parse and DecodeBytes verify it the
// same way and read the head (committed count, spec key, spec JSON) at its
// fixed offsets. Neither decodes the state: only the run that restores it
// does (pipeline.RestoreCore). Capture builds a capture's envelope in one
// buffer, and EncodeBytes hands back the envelope a snapshot was captured
// or parsed as, so a capture is encoded once.
//
// Envelope:
//
//	offset  size  field
//	0       4     magic "GSNP"
//	4       4     format version (little-endian uint32)
//	8       4     body length   (little-endian uint32)
//	12      4     CRC-32C (Castagnoli) of the body
//	16      n     body
//
// Body, version 2 (offsets from the start of the body):
//
//	offset  size  field
//	0       8     committed instructions (little-endian uint64)
//	8       2     spec key length k (little-endian uint16)
//	10      k     spec key
//	10+k    4     spec JSON length j (little-endian uint32)
//	14+k    j     spec JSON (the canonical spec, for inspection)
//	14+k+j  rest  state: one section per owning package, in this order
//
// State sections. Counts, counters, indices and times are varints in their
// shortest form (signed ones zigzagged; a time is 0 for never, else its
// zigzag varint plus one), floats are 8 little-endian IEEE-754 bytes and
// bools one byte. A list is its count followed by its elements.
//
//	section            owner     contents
//	source             workload  generator: RNG draw counts, walk state, the
//	                   or trace  program as first-visit PC order (zigzag
//	                             deltas of pc/4) and the branches whose loop
//	                             count or last direction is not zero; phased:
//	                             the phase cursor, then each built phase's
//	                             generator; replay: the stream position
//	clocks             clock     per clock domain: period, phase, voltage,
//	                             slowdown
//	calendar           pipeline  per clock domain: next edge, period
//	predictor          bpred     direction counters packed four to a byte,
//	                             history, the non-zero BTB entries, counters
//	caches             cache     per level (L1I, L1D, L2): valid-way bitmap,
//	                             tag and LRU stamp of each valid way, dirty
//	                             and prefetched bitmaps over the valid ways,
//	                             tick, counters; then memory's access count
//	meter              power     per block: pending, energy, cycles, idle
//	rename             rename    both maps, both free lists, counters
//	reorder buffer     rob       entries as record references, counters
//	links              fifo      per link (fetch→decode, decode→rename, per
//	                             execution domain dispatch and complete, the
//	                             four wake-up links): entries, counters,
//	                             free-slot times, open transaction
//	execution domains  iq,       per domain: issue queue entries and
//	                   pipeline  counters, functional-unit busy times,
//	                             in-flight operations
//	core               pipeline  ready times, fetch, squash, DVFS controller,
//	                             sampler and run counters, samples so far
//
// A record reference is a varint index into the records read so far; the
// index one past the last is a new record, whose fields (isa) follow it in
// place. Every in-flight instruction is thus written once, where its first
// holder names it.
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
	"sync"
)

// Version is the current snapshot format version. Restoring a snapshot
// written under any other version fails with a VersionError: state layouts
// are not stable across format bumps, and a half-understood restore is
// worse than a re-run warm-up.
const Version = 2

const (
	magic      = "GSNP"
	headerSize = 16
	// maxBody bounds a decode's allocation: snapshots of the paper's
	// machine are a few tens of kilobytes; anything near this limit is a
	// corrupt length field, not a real capture.
	maxBody = 1 << 28
	// maxKey bounds the spec key, whose length field is two bytes.
	maxKey = 1<<16 - 1
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
	SpecKey string
	// SpecJSON is the canonical spec for human inspection and error
	// messages; SpecKey is the authoritative identity.
	SpecJSON json.RawMessage
	// Committed is the number of committed instructions at capture: the
	// warm-up length this snapshot encodes.
	Committed uint64
	// State is the machine state's sections (see the package comment),
	// which pipeline.RestoreCore decodes. A snapshot from Capture, Parse or
	// DecodeBytes shares State's memory with the envelope EncodeBytes
	// returns: replace it, never modify it in place.
	State []byte

	// enc is the envelope the snapshot was captured or parsed as.
	enc []byte
}

// scratch holds capture buffers: a capture is appended into one, which
// then grows no more, and copied out at its exact size.
var scratch sync.Pool

// Capture builds the snapshot of a live machine: the envelope's header and
// head, then the state appendState writes, in one buffer that is sealed
// and copied out once at its exact size.
func Capture(specKey string, specJSON []byte, committed uint64, appendState func(*Encoder)) (*Snapshot, error) {
	e, _ := scratch.Get().(*Encoder)
	if e == nil {
		e = NewEncoder(nil)
	}
	defer scratch.Put(e)
	b, err := appendHead(e.b[:0], specKey, specJSON, committed)
	if err != nil {
		return nil, err
	}
	e.b = b
	appendState(e)
	if b, err = seal(bytes.Clone(e.b)); err != nil {
		return nil, err
	}
	return readHead(b, b[headerSize:])
}

// appendHead appends the envelope's header, still to be sealed, and the
// body's head to b.
func appendHead(b []byte, specKey string, specJSON []byte, committed uint64) ([]byte, error) {
	if len(specKey) > maxKey {
		return nil, fmt.Errorf("snapshot: spec key of %d bytes exceeds the %d-byte format limit", len(specKey), maxKey)
	}
	if len(specJSON) > maxBody {
		return nil, fmt.Errorf("snapshot: spec JSON of %d bytes exceeds the %d-byte format limit", len(specJSON), maxBody)
	}
	b = append(b, make([]byte, headerSize)...)
	b = binary.LittleEndian.AppendUint64(b, committed)
	b = binary.LittleEndian.AppendUint16(b, uint16(len(specKey)))
	b = append(b, specKey...)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(specJSON)))
	return append(b, specJSON...), nil
}

// EncodeBytes returns the snapshot in envelope form. For a snapshot whose
// fields still hold what it was captured or parsed with, that is the
// envelope it came from, shared, not copied: the caller must not modify
// it. Any other snapshot is encoded into a new buffer.
func (s *Snapshot) EncodeBytes() ([]byte, error) {
	if s.enc != nil && s.unchanged() {
		return s.enc, nil
	}
	b, err := appendHead(nil, s.SpecKey, s.SpecJSON, s.Committed)
	if err != nil {
		return nil, err
	}
	return seal(append(b, s.State...))
}

// unchanged reports whether s's fields still hold what its envelope says.
// Comparing State costs nothing while it aliases the envelope.
func (s *Snapshot) unchanged() bool {
	body := s.enc[headerSize:]
	k := int(binary.LittleEndian.Uint16(body[8:]))
	j := int(binary.LittleEndian.Uint32(body[10+k:]))
	return binary.LittleEndian.Uint64(body) == s.Committed && string(body[10:10+k]) == s.SpecKey &&
		bytes.Equal(body[14+k:14+k+j], s.SpecJSON) && bytes.Equal(body[14+k+j:], s.State)
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
// and the body's CRC-32C — without reading the body. It fails with exactly
// the error Parse returns for the same bytes, unless the head is malformed.
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

// Parse verifies b as Check does and reads the head at its fixed offsets,
// without copying and without decoding the state: the snapshot's fields
// alias b, which the caller must not modify afterwards. Any failure is
// typed: ErrMagic, *VersionError, or *CorruptError.
func Parse(b []byte) (*Snapshot, error) {
	body, err := checkedBody(b)
	if err != nil {
		return nil, err
	}
	return readHead(b, body)
}

// readHead reads the head of body, the checked body of envelope b, into a
// snapshot whose fields alias b.
func readHead(b, body []byte) (*Snapshot, error) {
	if len(body) < 10 {
		return nil, &CorruptError{Reason: "truncated head"}
	}
	s := &Snapshot{Committed: binary.LittleEndian.Uint64(body), enc: b}
	k := int(binary.LittleEndian.Uint16(body[8:]))
	rest := body[10:]
	if len(rest) < k+4 {
		return nil, &CorruptError{Reason: "truncated head"}
	}
	s.SpecKey, rest = string(rest[:k]), rest[k:]
	j := binary.LittleEndian.Uint32(rest)
	rest = rest[4:]
	if uint64(len(rest)) < uint64(j) {
		return nil, &CorruptError{Reason: "truncated head"}
	}
	if j > 0 {
		s.SpecJSON = rest[:j:j]
	}
	s.State = rest[j:]
	if len(s.State) == 0 {
		return nil, &CorruptError{Reason: "empty state"}
	}
	return s, nil
}

// DecodeBytes is Parse over a copy of b: the snapshot it returns shares no
// memory with b. It never returns a partially-filled snapshot alongside a
// nil error.
func DecodeBytes(b []byte) (*Snapshot, error) {
	return Parse(bytes.Clone(b))
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
