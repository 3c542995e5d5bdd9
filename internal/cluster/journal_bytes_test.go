package cluster

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"galsim/internal/campaign"
	"galsim/internal/pipeline"
	"galsim/internal/wal"
)

// encodeRecord returns rec's payload as the store writes it: a checkpoint
// record through appendCheckpointRecord, any other through json.Marshal.
func encodeRecord(rec walRecord) ([]byte, error) {
	if rec.Type == "ckpt" {
		return appendCheckpointRecord(nil, rec), nil
	}
	return json.Marshal(rec)
}

// walFrames returns the log bytes of payloads: each one behind its 4-byte
// little-endian length and 4-byte CRC-32C.
func walFrames(payloads [][]byte) []byte {
	castagnoli := crc32.MakeTable(crc32.Castagnoli)
	var out []byte
	for _, p := range payloads {
		out = binary.LittleEndian.AppendUint32(out, uint32(len(p)))
		out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(p, castagnoli))
		out = append(out, p...)
	}
	return out
}

// TestJournalBytesUnchanged: after every step of a scripted run, enqueues,
// a completion, two checkpoints of one unit, a finish that compacts with a
// checkpoint live, a reopen, a second such compaction of the checkpoint
// replay decoded, and a finish to empty, the journal's segments
// hold exactly the frames of json.Marshal of the records a reader expects,
// in order. The campaign id and the checkpointed key need JSON escaping.
func TestJournalBytesUnchanged(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenJournal(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { s.Close() }()
	spec := campaign.RunSpec{Benchmark: "gcc", Instructions: 2_000}.Canonical()
	many := slices.Repeat([]campaign.RunSpec{spec}, 40)
	const id, key = "camp\"<&> ", "unit\n\x01é"
	snap1 := bytes.Repeat([]byte{0xff, 0x00, 'G'}, 200)
	snap2 := bytes.Repeat([]byte{0x7f, 'S'}, 301)
	stats := &pipeline.Stats{Benchmark: "gcc", Committed: 2_000}

	marshal := func(rec walRecord) []byte {
		rec.V = walRecordVersion
		return mustJSON(t, rec)
	}
	enqA := marshal(walRecord{Type: "enqueue", ID: id, RequestID: "req-a", Priority: int(campaign.PriorityInteractive), Specs: many[:1]})
	enqB := marshal(walRecord{Type: "enqueue", ID: "c2", RequestID: "req-b", Specs: many})
	done := marshal(walRecord{Type: "done", ID: id, Key: "k-done", Stats: stats})
	ckpt1 := marshal(walRecord{Type: "ckpt", ID: id, Key: key, Snap: snap1})
	ckpt2 := marshal(walRecord{Type: "ckpt", ID: id, Key: key, Snap: snap2})
	enqC := marshal(walRecord{Type: "enqueue", ID: "c3", RequestID: "req-b", Specs: many})

	check := func(step string, want ...[]byte) {
		t.Helper()
		segs, err := filepath.Glob(filepath.Join(dir, "*.wal"))
		if err != nil {
			t.Fatal(err)
		}
		var got []byte
		for _, seg := range segs { // Glob sorts: segment order
			b, err := os.ReadFile(seg)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, b...)
		}
		if w := walFrames(want); !bytes.Equal(got, w) {
			t.Fatalf("after %s the journal holds %d bytes in %d segments, want the %d bytes of %d records:\n%q\nwant\n%q",
				step, len(got), len(segs), len(w), len(want), got, w)
		}
	}

	for _, step := range []struct {
		name string
		do   func() error
		want [][]byte
	}{
		{"enqueue A", func() error {
			return s.CampaignEnqueued(id, "req-a", campaign.PriorityInteractive, many[:1])
		}, [][]byte{enqA}},
		{"enqueue B", func() error { return s.CampaignEnqueued("c2", "req-b", campaign.PriorityBulk, many) },
			[][]byte{enqA, enqB}},
		{"done", func() error { return s.JobCompleted(id, "k-done", stats) },
			[][]byte{enqA, enqB, done}},
		{"first ckpt", func() error { return s.JobCheckpoint(id, key, snap1) },
			[][]byte{enqA, enqB, done, ckpt1}},
		{"second ckpt", func() error { return s.JobCheckpoint(id, key, snap2) },
			[][]byte{enqA, enqB, done, ckpt1, ckpt2}},
		{"finish B", func() error { return s.CampaignFinished("c2", "") },
			[][]byte{enqA, done, ckpt2}},
		{"reopen", func() error {
			if err := s.Close(); err != nil {
				return err
			}
			s, err = OpenJournal(dir, wal.Options{})
			return err
		}, [][]byte{enqA, done, ckpt2}},
		{"enqueue C", func() error { return s.CampaignEnqueued("c3", "req-b", campaign.PriorityBulk, many) },
			[][]byte{enqA, done, ckpt2, enqC}},
		{"finish C", func() error { return s.CampaignFinished("c3", "") },
			[][]byte{enqA, done, ckpt2}},
	} {
		if err := step.do(); err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		check(step.name, step.want...)
	}
	if got := s.WALStats().Compactions; got != 1 {
		t.Fatalf("the reopened journal counts %d compactions, want 1", got)
	}
	recs, err := s.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].ID != id || !bytes.Equal(recs[0].Checkpoints[key], snap2) || recs[0].Completed["k-done"] == nil {
		t.Fatalf("the reopened journal recovers %+v", recs)
	}
	if err := s.CampaignFinished(id, "boom"); err != nil {
		t.Fatal(err)
	}
	check("finish A")
	if got := s.WALStats().Compactions; got != 2 {
		t.Fatalf("the reopened journal counts %d compactions after the last finish, want 2", got)
	}
}

// TestAppendJSONString: the string encoder of checkpoint records writes
// every one-byte string, and strings mixing plain and escaped runes, as
// json.Marshal writes them.
func TestAppendJSONString(t *testing.T) {
	strs := []string{"", "c17", "a&b", "x<y", "p>q", `"`, `\`, "é", "a\u2028b", "\u2029", "\xff", "k\x7fz"}
	for c := range 256 {
		strs = append(strs, string([]byte{byte(c)}))
	}
	for _, s := range strs {
		if got, want := appendJSONString([]byte("prefix:"), s), append([]byte("prefix:"), mustJSON(t, s)...); !bytes.Equal(got, want) {
			t.Errorf("appendJSONString(%q) = %s, want %s", s, got, want)
		}
	}
}
