package cluster

import (
	"encoding/base64"
	"encoding/json"
	"fmt"
	"maps"
	"slices"
	"strconv"
	"sync"
	"unicode/utf8"

	"galsim/internal/campaign"
	"galsim/internal/pipeline"
	"galsim/internal/wal"
)

// JobStore is the coordinator's durability seam. The coordinator writes
// three transitions through it — campaign enqueued, job completed, campaign
// finished — and on boot asks it for every campaign that was enqueued but
// never finished, so a half-done sweep resumes after a crash instead of
// vanishing. The default (a nil Config.Store) keeps everything in memory,
// exactly the pre-journal behavior; JournalStore persists the transitions
// to a write-ahead log.
//
// Store errors never corrupt the in-memory fleet: a failed append is
// surfaced to the caller (submit) or logged (completion/finish), degrading
// to at-least-once re-execution after a restart — safe, because job
// execution is deterministic and content-cached.
type JobStore interface {
	// CampaignEnqueued durably records a campaign before its jobs enter the
	// in-memory queue (write-ahead: if this fails, the campaign is rejected).
	CampaignEnqueued(id, requestID string, pri campaign.Priority, specs []campaign.RunSpec) error
	// JobCompleted durably records one finished unit, keyed by the spec's
	// content key (the same identity the result cache uses).
	JobCompleted(campaignID, specKey string, stats *pipeline.Stats) error
	// CampaignFinished marks a campaign terminal (errMsg empty on success).
	// Stores may compact: a finished campaign's records are dead weight
	// (JournalStore compacts once dead bytes are at least live ones).
	CampaignFinished(campaignID, errMsg string) error
	// Recover returns every campaign enqueued but not finished, with
	// whatever completions were journaled for it. Called once, before the
	// coordinator serves traffic.
	Recover() ([]RecoveredCampaign, error)
	// Close releases the store's resources.
	Close() error
}

// CheckpointStore is optionally implemented by job stores that can persist
// mid-run execution checkpoints: the coordinator journals each accepted
// POST /jobs/checkpoint through it, and Recover hands the latest checkpoint
// per unfinished unit back (RecoveredCampaign.Checkpoints), so a lost
// coordinator resumes long jobs from their last checkpoint instead of
// from zero. Stores without it (or a nil Config.Store) simply re-run —
// wasteful, never wrong, since execution is deterministic.
type CheckpointStore interface {
	// JobCheckpoint durably records the latest checkpoint for one in-flight
	// unit, keyed like JobCompleted by the spec's content key. A later
	// checkpoint for the same key supersedes the earlier one; a completion
	// retires it. The store may keep snap itself: the caller must not
	// modify it afterwards.
	JobCheckpoint(campaignID, specKey string, snap []byte) error
}

// RecoveredCampaign is one unfinished campaign replayed from a JobStore.
type RecoveredCampaign struct {
	ID        string
	RequestID string
	Priority  campaign.Priority
	Specs     []campaign.RunSpec
	// Completed maps spec content keys to journaled results: these units
	// are filled from the journal on resume, not re-run.
	Completed map[string]*pipeline.Stats
	// Checkpoints maps spec content keys to the latest journaled mid-run
	// snapshot (envelope-encoded) of units that were in flight at the
	// crash: re-dispatched jobs carry them so workers resume rather than
	// restart. Keys in Completed never appear here.
	Checkpoints map[string][]byte
}

// walRecord is the JSON payload inside each WAL frame. Replay is
// idempotent — a duplicate enqueue/done/finish for the same campaign is a
// no-op — which is what makes the WAL's crash-during-compaction story safe
// (old segments replay before the compacted snapshot).
type walRecord struct {
	V    int    `json:"v"`
	Type string `json:"t"` // "enqueue" | "done" | "ckpt" | "finish"
	ID   string `json:"id"`

	// enqueue
	RequestID string             `json:"req,omitempty"`
	Priority  int                `json:"pri,omitempty"`
	Specs     []campaign.RunSpec `json:"specs,omitempty"`

	// done, ckpt
	Key   string          `json:"key,omitempty"`
	Stats *pipeline.Stats `json:"stats,omitempty"`
	Snap  []byte          `json:"snap,omitempty"` // ckpt: envelope-encoded snapshot

	// finish
	Error string `json:"err,omitempty"`
}

const walRecordVersion = 1

// JournalStore is the WAL-backed JobStore: every transition is one
// checksummed record in an append-only segmented log (internal/wal). The
// store keeps every live record — each unfinished campaign's enqueue
// record, its completions, and the latest checkpoint of each unit still
// running — and compacts by rewriting the log to exactly those records,
// byte for byte, so the log tracks the working set instead of growing with
// history.
//
// Enqueue and completion records are kept as the payloads the log holds. A
// live checkpoint is held once, as the envelope the coordinator already
// keeps for the job (or, after a reopen, as replay decoded it): its ckpt
// record is encoded into one buffer the store reuses, appended, and
// encoded again, to the same bytes, only by a compaction.
//
// Compaction is log-structured cleaning: it runs when a campaign finishes
// and the log's dead payload bytes (finished campaigns, superseded
// checkpoints, duplicates) are at least its live ones. With no campaign
// live that always holds, and the log resets to empty. Each rewrite copies
// no more live bytes than the dead bytes it drops, so a journaled byte is
// rewritten O(1) times on average, however many campaigns stay live.
type JournalStore struct {
	mu   sync.Mutex
	log  *wal.Log
	live map[string]*journalCampaign // unfinished campaigns
	buf  []byte                      // the ckpt record being written

	// logBytes counts the payload bytes of the records in the log,
	// liveBytes those of the live records; the difference is dead weight.
	logBytes, liveBytes int
}

// journalCampaign is one unfinished campaign's live records. The enqueue
// and completion records are the payloads the log holds: compaction writes
// them back verbatim and Recover decodes them.
type journalCampaign struct {
	enqueue []byte
	done    map[string][]byte         // completion record per unit
	ckpt    map[string]liveCheckpoint // latest checkpoint per not-yet-done unit
}

// liveCheckpoint is a unit's latest checkpoint: the envelope itself, not
// its record, and the size of its record in the log.
type liveCheckpoint struct {
	snap        []byte
	recordBytes int
}

// bytes is the size of the campaign's live records.
func (c *journalCampaign) bytes() int {
	n := len(c.enqueue)
	for _, p := range c.done {
		n += len(p)
	}
	for _, ck := range c.ckpt {
		n += ck.recordBytes
	}
	return n
}

// OpenJournal opens (or creates) a journal in dir and replays it into the
// store's live set; Recover then hands the unfinished campaigns to the
// coordinator. A torn tail from a crash mid-append is truncated by the WAL
// layer; mid-log corruption is a hard error — silently dropping campaigns
// would defeat the journal's whole purpose.
func OpenJournal(dir string, opt wal.Options) (*JournalStore, error) {
	l, err := wal.Open(dir, opt)
	if err != nil {
		return nil, err
	}
	s := &JournalStore{log: l, live: map[string]*journalCampaign{}}
	if err := l.Replay(s.apply); err != nil {
		l.Close()
		return nil, fmt.Errorf("cluster: replaying journal %s: %w", dir, err)
	}
	return s, nil
}

// apply folds one replayed journal record into the live set; a ckpt
// record's envelope is decoded here, once. Malformed JSON is a hard error
// (the WAL checksum passed, so this is a software bug, not a torn write).
func (s *JournalStore) apply(payload []byte) error {
	rec, err := decodeRecord(payload)
	if err != nil {
		return err
	}
	s.fold(rec, payload)
	return nil
}

func decodeRecord(payload []byte) (walRecord, error) {
	var rec walRecord
	if err := json.Unmarshal(payload, &rec); err != nil {
		return rec, fmt.Errorf("decoding journal record: %w", err)
	}
	return rec, nil
}

// fold adds one record of the log, appended or replayed, to the live set.
// The same rules serve both, so the live set after a reopen is the one
// before it. An enqueue or completion keeps payload; a checkpoint keeps
// rec.Snap and only the length of payload, which may be the store's
// reused buffer. Records that change nothing — a duplicate enqueue or
// completion, a completion or checkpoint for a finished campaign, a zombie
// checkpoint for a completed unit — are dead on arrival. Unknown record
// types are skipped too (forward compatibility: a newer coordinator's
// journal should degrade to re-running work, not refuse to start).
func (s *JournalStore) fold(rec walRecord, payload []byte) {
	s.logBytes += len(payload)
	camp, ok := s.live[rec.ID]
	switch rec.Type {
	case "enqueue":
		if !ok {
			s.live[rec.ID] = &journalCampaign{enqueue: payload, done: map[string][]byte{}, ckpt: map[string]liveCheckpoint{}}
			s.liveBytes += len(payload)
		}
	case "done":
		if ok && rec.Stats != nil {
			if _, dup := camp.done[rec.Key]; !dup {
				camp.done[rec.Key] = payload
				s.liveBytes += len(payload)
			}
			// A completion retires the unit's checkpoint.
			s.liveBytes -= camp.ckpt[rec.Key].recordBytes
			delete(camp.ckpt, rec.Key)
		}
	case "ckpt":
		// Latest checkpoint wins; one appended after the unit's completion
		// (a zombie worker's late post) stays retired.
		if !ok || len(rec.Snap) == 0 {
			break
		}
		if _, done := camp.done[rec.Key]; !done {
			s.liveBytes += len(payload) - camp.ckpt[rec.Key].recordBytes
			camp.ckpt[rec.Key] = liveCheckpoint{snap: rec.Snap, recordBytes: len(payload)}
		}
	case "finish":
		if ok {
			s.liveBytes -= camp.bytes()
			delete(s.live, rec.ID)
		}
	}
}

// record appends rec to the log and folds it into the live set. A
// checkpoint record is encoded into s.buf, which the next one reuses.
func (s *JournalStore) record(rec walRecord) error {
	rec.V = walRecordVersion
	var payload []byte
	if rec.Type == "ckpt" {
		s.buf = appendCheckpointRecord(s.buf[:0], rec)
		payload = s.buf
	} else {
		var err error
		if payload, err = json.Marshal(rec); err != nil {
			return fmt.Errorf("cluster: encoding journal record: %w", err)
		}
	}
	if err := s.log.Append(payload); err != nil {
		return err
	}
	s.fold(rec, payload)
	return nil
}

// appendCheckpointRecord appends the payload of a ckpt record, which
// carries only v, t, id, key and snap, to b: the bytes of json.Marshal(rec)
// without its allocations. The snapshot is nearly all of it; json.Marshal
// would grow a buffer around the snapshot's base64 several times and then
// copy it once more.
func appendCheckpointRecord(b []byte, rec walRecord) []byte {
	b = slices.Grow(b, 64+len(rec.ID)+len(rec.Key)+base64.StdEncoding.EncodedLen(len(rec.Snap)))
	b = append(b, `{"v":`...)
	b = strconv.AppendInt(b, int64(rec.V), 10)
	b = append(b, `,"t":"ckpt","id":`...)
	b = appendJSONString(b, rec.ID)
	if rec.Key != "" {
		b = append(b, `,"key":`...)
		b = appendJSONString(b, rec.Key)
	}
	if len(rec.Snap) > 0 {
		b = append(b, `,"snap":"`...)
		b = base64.StdEncoding.AppendEncode(b, rec.Snap)
		b = append(b, '"')
	}
	return append(b, '}')
}

// appendJSONString appends s as encoding/json writes it. A string with
// nothing to escape, as every campaign id and content key the coordinator
// makes is, is copied as it is; any other goes through json.Marshal.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// CampaignEnqueued implements JobStore.
func (s *JournalStore) CampaignEnqueued(id, requestID string, pri campaign.Priority, specs []campaign.RunSpec) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.record(walRecord{Type: "enqueue", ID: id, RequestID: requestID, Priority: int(pri), Specs: specs})
}

// JobCompleted implements JobStore.
func (s *JournalStore) JobCompleted(campaignID, specKey string, stats *pipeline.Stats) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	camp, ok := s.live[campaignID]
	if !ok {
		return nil // campaign already finished (stale duplicate completion)
	}
	if _, dup := camp.done[specKey]; dup {
		return nil
	}
	return s.record(walRecord{Type: "done", ID: campaignID, Key: specKey, Stats: stats})
}

// JobCheckpoint implements CheckpointStore: the latest checkpoint per unit
// is kept live (superseded ones become dead log weight until a compaction
// drops them). A checkpoint for an already-completed unit, or a finished
// campaign, is a stale zombie post and is dropped without an append.
func (s *JournalStore) JobCheckpoint(campaignID, specKey string, snap []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	camp, ok := s.live[campaignID]
	if !ok {
		return nil
	}
	if _, done := camp.done[specKey]; done {
		return nil
	}
	return s.record(walRecord{Type: "ckpt", ID: campaignID, Key: specKey, Snap: snap})
}

// CampaignFinished implements JobStore: the terminal record is appended,
// and the log is compacted once its dead bytes are at least its live ones
// — always when no campaign remains, which resets it to empty.
func (s *JournalStore) CampaignFinished(campaignID, errMsg string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.live[campaignID]; !ok {
		return nil
	}
	if err := s.record(walRecord{Type: "finish", ID: campaignID, Error: errMsg}); err != nil {
		return err
	}
	if s.logBytes-s.liveBytes < s.liveBytes {
		return nil
	}
	return s.compactLocked()
}

// compactLocked rewrites the log to exactly the live records: enqueue and
// completion payloads verbatim, each checkpoint's record encoded again
// from its envelope into s.buf, to the bytes it was appended as.
// Idempotent-replay semantics make a crash anywhere in here safe.
func (s *JournalStore) compactLocked() error {
	records := func(yield func([]byte) bool) {
		for _, id := range slices.Sorted(maps.Keys(s.live)) {
			camp := s.live[id]
			if !yield(camp.enqueue) {
				return
			}
			for _, k := range slices.Sorted(maps.Keys(camp.done)) {
				if !yield(camp.done[k]) {
					return
				}
			}
			for _, k := range slices.Sorted(maps.Keys(camp.ckpt)) {
				rec := walRecord{V: walRecordVersion, Type: "ckpt", ID: id, Key: k, Snap: camp.ckpt[k].snap}
				s.buf = appendCheckpointRecord(s.buf[:0], rec)
				if !yield(s.buf) {
					return
				}
			}
		}
	}
	if err := s.log.Rewrite(records); err != nil {
		return err
	}
	s.logBytes = s.liveBytes
	return nil
}

// Recover implements JobStore.
func (s *JournalStore) Recover() ([]RecoveredCampaign, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]RecoveredCampaign, 0, len(s.live))
	for _, id := range slices.Sorted(maps.Keys(s.live)) {
		camp := s.live[id]
		enq, err := decodeRecord(camp.enqueue)
		if err != nil {
			return nil, err
		}
		rc := RecoveredCampaign{
			ID:          id,
			RequestID:   enq.RequestID,
			Priority:    campaign.Priority(enq.Priority),
			Specs:       enq.Specs,
			Completed:   make(map[string]*pipeline.Stats, len(camp.done)),
			Checkpoints: make(map[string][]byte, len(camp.ckpt)),
		}
		for k, p := range camp.done {
			rec, err := decodeRecord(p)
			if err != nil {
				return nil, err
			}
			rc.Completed[k] = rec.Stats
		}
		for k, ck := range camp.ckpt {
			rc.Checkpoints[k] = ck.snap
		}
		out = append(out, rc)
	}
	return out, nil
}

// WALStats exposes the underlying log's counters; the coordinator exports
// them as the galsim_wal_* metric family.
func (s *JournalStore) WALStats() wal.Stats { return s.log.Stats() }

// Close implements JobStore.
func (s *JournalStore) Close() error { return s.log.Close() }

var (
	_ JobStore        = (*JournalStore)(nil)
	_ CheckpointStore = (*JournalStore)(nil)
)
