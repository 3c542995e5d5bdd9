// Package wal is a zero-dependency write-ahead log: append-only segment
// files of length-prefixed, CRC-checksummed records. It is the durability
// primitive behind the cluster coordinator's crash-safe job journal
// (internal/cluster.JournalStore), but knows nothing about jobs — callers
// append opaque byte payloads and replay them in order after a restart.
//
// Guarantees and non-guarantees:
//
//   - A record either replays whole or not at all: every record is framed
//     with its payload length and a CRC-32C checksum, so a torn write (the
//     process or machine died mid-append) is detected and the tail is
//     truncated on the next Open rather than surfacing corrupt bytes.
//   - Records replay in append order across segment boundaries.
//   - Durability is bounded by the fsync policy: with Options.SyncEvery=1
//     (the default) an Append returns only after the record is fsynced;
//     with a larger interval (or SyncEvery<0, never) a crash may lose the
//     records appended since the last sync — but never reorder or corrupt
//     the ones that survive.
//   - Compaction (Rewrite) replaces the whole log with a caller-provided
//     snapshot of live records. It is crash-safe as long as replaying the
//     old records followed by the snapshot reaches the same state as the
//     snapshot alone — i.e. the caller's records are idempotent — because
//     a crash between writing the snapshot segment and unlinking the old
//     segments leaves both on disk.
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"iter"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// Frame layout: 4-byte little-endian payload length, 4-byte CRC-32C
// (Castagnoli) of the payload, then the payload bytes.
const headerSize = 8

// MaxRecordBytes bounds a single record. The bound is checked on both
// Append and replay, so a corrupt length field cannot make recovery
// allocate gigabytes.
const MaxRecordBytes = 16 << 20

// rewriteChunk is how many staged frame bytes Rewrite gathers before it
// writes them out.
const rewriteChunk = 64 << 10

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrTooLarge is returned by Append for payloads above MaxRecordBytes.
var ErrTooLarge = errors.New("wal: record exceeds MaxRecordBytes")

// ErrClosed is returned by operations on a closed log.
var ErrClosed = errors.New("wal: log is closed")

// ErrCorrupt wraps replay failures outside the final segment's tail: a
// checksum mismatch in the middle of the log is data loss, not a torn
// write, and is never silently truncated.
var ErrCorrupt = errors.New("wal: corrupt record")

// Options tunes a Log. The zero value selects production defaults.
type Options struct {
	// SegmentBytes rotates to a fresh segment file once the current one
	// reaches this size (default 4 MiB). Rotation bounds the cost of the
	// torn-tail scan on Open: only the final segment is ever truncated.
	SegmentBytes int64
	// SyncEvery is the fsync policy: fsync after every Nth append.
	// 1 (and the zero value) syncs every append — an Append that returned
	// is on disk. Larger values amortize the fsync over N records at the
	// cost of losing up to N-1 on a crash. Negative never fsyncs from
	// Append (the OS flushes on its own schedule); Sync can still be
	// called explicitly.
	SyncEvery int
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 4 << 20
	}
	if o.SyncEvery == 0 {
		o.SyncEvery = 1
	}
	return o
}

// Stats is a point-in-time snapshot of a log's lifetime counters, exported
// as the galsim_wal_* metric family by the cluster coordinator.
type Stats struct {
	Appends         uint64 // records appended
	Fsyncs          uint64 // fsync calls issued
	BytesWritten    uint64 // frame bytes written (header + payload)
	Segments        uint64 // live segment files
	Rotations       uint64 // segment rotations
	Compactions     uint64 // Rewrite calls that committed
	TornTruncations uint64 // torn tails truncated on Open
	TruncatedBytes  uint64 // bytes dropped by torn-tail truncation
	ReplayedRecords uint64 // records delivered by Replay
}

// Log is an append-only segmented record log. All methods are safe for
// concurrent use.
//
// A log frames records in place: it keeps one staging buffer, reused under
// its lock, that Append fills with one frame and Rewrite with up to 64 KiB
// of frames before each write. The buffer never outgrows the larger of the
// log's largest frame and 64 KiB, so it holds at most MaxRecordBytes + 8
// bytes.
type Log struct {
	dir string
	opt Options

	mu        sync.Mutex
	f         *os.File // active (highest-sequence) segment, opened for append
	seq       uint64   // active segment's sequence number
	size      int64    // active segment's current size
	segments  []uint64 // live segment sequences, ascending (last == seq)
	sinceSync int      // appends since the last fsync
	buf       []byte   // staging buffer for the frames of one write
	closed    bool
	stats     Stats
}

func segmentName(seq uint64) string { return fmt.Sprintf("%016d.wal", seq) }

// Open opens (or creates) the log in dir, recovering from a torn tail: the
// final segment is scanned and truncated to its last whole, checksummed
// record. Earlier segments are validated lazily by Replay.
func Open(dir string, opt Options) (*Log, error) {
	opt = opt.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: creating %s: %w", dir, err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: reading %s: %w", dir, err)
	}
	var seqs []uint64
	for _, e := range entries {
		var seq uint64
		if _, err := fmt.Sscanf(e.Name(), "%016d.wal", &seq); err == nil && segmentName(seq) == e.Name() {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	l := &Log{dir: dir, opt: opt, segments: seqs}
	if len(seqs) == 0 {
		if err := l.openSegmentLocked(1); err != nil {
			return nil, err
		}
		return l, nil
	}
	// Torn-tail recovery on the final segment: everything up to the last
	// whole record survives, anything after is a write the crash interrupted.
	last := seqs[len(seqs)-1]
	path := filepath.Join(dir, segmentName(last))
	valid, _, err := scanSegment(path, nil)
	if err != nil {
		return nil, err // scanSegment only errors on I/O, torn tails report via valid
	}
	info, err := os.Stat(path)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	if info.Size() > valid {
		if err := os.Truncate(path, valid); err != nil {
			return nil, fmt.Errorf("wal: truncating torn tail of %s: %w", path, err)
		}
		l.stats.TornTruncations++
		l.stats.TruncatedBytes += uint64(info.Size() - valid)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: opening %s: %w", path, err)
	}
	l.f, l.seq, l.size = f, last, valid
	return l, nil
}

// openSegmentLocked creates and switches to segment seq. l.mu must be held
// (or the log not yet shared).
func (l *Log) openSegmentLocked(seq uint64) error {
	f, err := os.OpenFile(filepath.Join(l.dir, segmentName(seq)), os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("wal: creating segment: %w", err)
	}
	if l.f != nil {
		l.f.Sync() //nolint:errcheck // the rotated-away segment is immutable from here
		l.f.Close()
	}
	l.f, l.seq, l.size = f, seq, 0
	l.segments = append(l.segments, seq)
	return nil
}

// appendFrame appends payload's frame to b, growing b to the exact size
// needed, or to double its capacity if that is more and at most
// rewriteChunk.
func appendFrame(b, payload []byte) []byte {
	n := len(b) + headerSize + len(payload)
	if n > cap(b) {
		b = append(make([]byte, 0, max(n, min(2*cap(b), rewriteChunk))), b...)
	}
	frame := b[len(b):n]
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(payload, castagnoli))
	copy(frame[headerSize:], payload)
	return b[:n]
}

// readRecord reads one frame from r and returns its payload. ok is false at
// a clean end of input and at a torn header or payload, a length over
// MaxRecordBytes or a checksum mismatch: the shapes the tail of a crashed
// writer's segment takes.
func readRecord(r io.Reader) (payload []byte, ok bool) {
	var header [headerSize]byte
	if _, err := io.ReadFull(r, header[:]); err != nil {
		return nil, false
	}
	length := binary.LittleEndian.Uint32(header[0:4])
	if length > MaxRecordBytes {
		return nil, false
	}
	payload = make([]byte, length)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, false
	}
	if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(header[4:8]) {
		return nil, false
	}
	return payload, true
}

// Append durably adds one record, rotating to a new segment when the
// current one is full and fsyncing per the configured policy.
func (l *Log) Append(payload []byte) error {
	if len(payload) > MaxRecordBytes {
		return ErrTooLarge
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	frameLen := int64(headerSize + len(payload))
	if l.size > 0 && l.size+frameLen > l.opt.SegmentBytes {
		if err := l.openSegmentLocked(l.seq + 1); err != nil {
			return err
		}
		l.stats.Rotations++
	}
	l.buf = appendFrame(l.buf[:0], payload)
	if _, err := l.f.Write(l.buf); err != nil {
		return fmt.Errorf("wal: append: %w", err)
	}
	l.size += frameLen
	l.stats.Appends++
	l.stats.BytesWritten += uint64(frameLen)
	l.sinceSync++
	if l.opt.SyncEvery > 0 && l.sinceSync >= l.opt.SyncEvery {
		return l.syncLocked()
	}
	return nil
}

// Sync flushes any buffered appends to stable storage regardless of policy.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	return l.syncLocked()
}

func (l *Log) syncLocked() error {
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: fsync: %w", err)
	}
	l.stats.Fsyncs++
	l.sinceSync = 0
	return nil
}

// Replay streams every record, oldest first, to fn. A torn tail in the
// final segment ends the replay cleanly (Open already truncates it, but a
// concurrent crash-copied directory may still carry one); corruption in
// any earlier segment returns ErrCorrupt — that is lost data, not a torn
// write. Replay holds the log's lock: call it before serving appends.
func (l *Log) Replay(fn func(payload []byte) error) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	for i, seq := range l.segments {
		path := filepath.Join(l.dir, segmentName(seq))
		valid, n, err := scanSegment(path, fn)
		l.stats.ReplayedRecords += n
		if err != nil {
			return err
		}
		if i < len(l.segments)-1 {
			// A non-final segment must scan to its exact end; a short scan
			// means mid-log corruption, not a torn write.
			if info, serr := os.Stat(path); serr == nil && valid != info.Size() {
				return fmt.Errorf("%w: segment %s damaged mid-log", ErrCorrupt, segmentName(seq))
			}
		}
	}
	return nil
}

// scanSegment reads records from one segment file, calling fn (when
// non-nil) per payload, and returns the byte offset of the last whole valid
// record plus the number of records delivered. Torn or corrupt tails stop
// the scan without error — the caller decides whether that is recoverable.
func scanSegment(path string, fn func([]byte) error) (valid int64, records uint64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, fmt.Errorf("wal: %w", err)
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 1<<16)
	for {
		payload, ok := readRecord(br)
		if !ok {
			return valid, records, nil // clean EOF, or a torn or corrupt tail
		}
		if fn != nil {
			if err := fn(payload); err != nil {
				return valid, records, err
			}
		}
		valid += headerSize + int64(len(payload))
		records++
	}
}

// Rewrite atomically replaces the log's contents with the given records —
// the compaction primitive; a nil records empties the log. Each record is
// framed into the log's staging buffer before the next is asked for, so
// the sequence may hand every record out in one buffer it reuses; it must
// not call into the log. The snapshot is written to a fresh segment
// (sequence-numbered after every existing one), fsynced, and atomically
// renamed into place before the old segments are unlinked. A crash in
// between leaves old segments beside the snapshot; because the snapshot
// sorts after them, replay sees old records then the snapshot — callers
// whose records replay idempotently (the coordinator's journal does)
// recover the identical state.
func (l *Log) Rewrite(records iter.Seq[[]byte]) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	newSeq := l.seq + 1
	finalPath := filepath.Join(l.dir, segmentName(newSeq))
	tmpPath := finalPath + ".tmp"
	tmp, err := os.OpenFile(tmpPath, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: rewrite: %w", err)
	}
	size, err := l.writeFramesLocked(tmp, records)
	if err != nil {
		tmp.Close()
		os.Remove(tmpPath) //nolint:errcheck // best-effort cleanup
		return err
	}
	tmp.Close()
	if err := os.Rename(tmpPath, finalPath); err != nil {
		os.Remove(tmpPath) //nolint:errcheck // best-effort cleanup
		return fmt.Errorf("wal: rewrite commit: %w", err)
	}
	// The snapshot is durable and in place: retire the old segments. Unlink
	// failures are non-fatal (idempotent replay tolerates leftovers) but the
	// segment list must reflect what will replay.
	old := l.segments
	f, err := os.OpenFile(finalPath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("wal: rewrite reopen: %w", err)
	}
	l.f.Close()
	l.f, l.seq, l.size, l.sinceSync = f, newSeq, size, 0
	l.segments = []uint64{newSeq}
	for _, seq := range old {
		if seq != newSeq {
			if rmErr := os.Remove(filepath.Join(l.dir, segmentName(seq))); rmErr == nil {
				continue
			}
			l.segments = append([]uint64{seq}, l.segments...)
		}
	}
	sort.Slice(l.segments, func(i, j int) bool { return l.segments[i] < l.segments[j] })
	l.stats.Compactions++
	l.stats.BytesWritten += uint64(size)
	l.stats.Fsyncs++
	return nil
}

// writeFramesLocked writes the frames of records to f through the staging
// buffer, 64 KiB at a time, fsyncs f and returns the bytes written. l.mu
// must be held.
func (l *Log) writeFramesLocked(f *os.File, records iter.Seq[[]byte]) (int64, error) {
	var size int64
	flush := func() error {
		_, err := f.Write(l.buf)
		size += int64(len(l.buf))
		l.buf = l.buf[:0]
		return err
	}
	l.buf = l.buf[:0]
	if records != nil {
		for rec := range records {
			if len(rec) > MaxRecordBytes {
				return 0, ErrTooLarge
			}
			if len(l.buf) > 0 && len(l.buf)+headerSize+len(rec) > rewriteChunk {
				if err := flush(); err != nil {
					return 0, fmt.Errorf("wal: rewrite: %w", err)
				}
			}
			l.buf = appendFrame(l.buf, rec)
		}
	}
	err := flush()
	if err == nil {
		err = f.Sync()
	}
	if err != nil {
		return 0, fmt.Errorf("wal: rewrite: %w", err)
	}
	return size, nil
}

// Stats snapshots the log's counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := l.stats
	s.Segments = uint64(len(l.segments))
	return s
}

// Close flushes and closes the active segment. Further operations return
// ErrClosed.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	var err error
	if l.opt.SyncEvery >= 0 && l.sinceSync > 0 {
		err = l.f.Sync()
	}
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	return err
}
