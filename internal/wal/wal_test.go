package wal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

// raceEnabled is set under the race detector, whose instrumentation
// allocates on its own: allocation counts mean nothing there.
var raceEnabled bool

func collect(t *testing.T, l *Log) [][]byte {
	t.Helper()
	var got [][]byte
	if err := l.Replay(func(p []byte) error {
		got = append(got, append([]byte(nil), p...))
		return nil
	}); err != nil {
		t.Fatalf("replay: %v", err)
	}
	return got
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := [][]byte{[]byte("one"), []byte(""), []byte("three-is-longer"), bytes.Repeat([]byte{0xAB}, 4096)}
	for _, rec := range want {
		if err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if got := collect(t, l); len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	} else {
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Errorf("record %d = %q, want %q", i, got[i], want[i])
			}
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen: the same records survive the restart.
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := collect(t, l2); len(got) != len(want) {
		t.Fatalf("after reopen: replayed %d records, want %d", len(got), len(want))
	}
	if st := l2.Stats(); st.ReplayedRecords != uint64(len(want)) || st.TornTruncations != 0 {
		t.Errorf("stats after clean reopen: %+v", st)
	}
}

func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments force a rotation every couple of records.
	l, err := Open(dir, Options{SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	var want [][]byte
	for i := 0; i < 20; i++ {
		rec := []byte(fmt.Sprintf("record-%02d-padding-padding", i))
		want = append(want, rec)
		if err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if st := l.Stats(); st.Segments < 2 || st.Rotations == 0 {
		t.Fatalf("no rotation happened: %+v", st)
	}
	l.Close()
	l2, err := Open(dir, Options{SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	got := collect(t, l2)
	if len(got) != len(want) {
		t.Fatalf("replayed %d records across segments, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("record %d = %q, want %q (ordering across segments broken)", i, got[i], want[i])
		}
	}
}

// TestTornTailTruncation is the satellite table test: a journal whose final
// record is cut at EVERY possible byte offset must reopen cleanly, replay
// exactly the preceding records, and accept new appends.
func TestTornTailTruncation(t *testing.T) {
	intact := [][]byte{[]byte("alpha"), []byte("beta"), []byte("gamma-gamma")}
	final := []byte("the-final-record")
	frameLen := headerSize + len(final)
	for cut := 0; cut < frameLen; cut++ {
		t.Run(fmt.Sprintf("cut=%d", cut), func(t *testing.T) {
			dir := t.TempDir()
			l, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			for _, rec := range intact {
				if err := l.Append(rec); err != nil {
					t.Fatal(err)
				}
			}
			if err := l.Append(final); err != nil {
				t.Fatal(err)
			}
			l.Close()
			// Tear the tail: keep only `cut` bytes of the final frame.
			seg := filepath.Join(dir, segmentName(1))
			info, err := os.Stat(seg)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(seg, info.Size()-int64(frameLen-cut)); err != nil {
				t.Fatal(err)
			}
			l2, err := Open(dir, Options{})
			if err != nil {
				t.Fatalf("reopen after tear at %d: %v", cut, err)
			}
			defer l2.Close()
			if cut > 0 {
				if st := l2.Stats(); st.TornTruncations != 1 {
					t.Errorf("torn truncations = %d, want 1", st.TornTruncations)
				}
			}
			got := collect(t, l2)
			if len(got) != len(intact) {
				t.Fatalf("replayed %d records, want the %d intact ones", len(got), len(intact))
			}
			for i := range intact {
				if !bytes.Equal(got[i], intact[i]) {
					t.Fatalf("record %d corrupted by recovery: %q", i, got[i])
				}
			}
			// The log must be fully usable after recovery.
			if err := l2.Append([]byte("post-recovery")); err != nil {
				t.Fatal(err)
			}
			if got := collect(t, l2); len(got) != len(intact)+1 {
				t.Fatalf("append after recovery not replayed (%d records)", len(got))
			}
		})
	}
}

// TestTornTailBitFlip: a corrupted (not just truncated) final record is
// also dropped — the checksum, not the length, is the arbiter.
func TestTornTailBitFlip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	l.Append([]byte("keep-me")) //nolint:errcheck
	l.Append([]byte("flip-me")) //nolint:errcheck
	l.Close()
	seg := filepath.Join(dir, segmentName(1))
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xFF
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	got := collect(t, l2)
	if len(got) != 1 || string(got[0]) != "keep-me" {
		t.Fatalf("replay after bit flip = %q, want just keep-me", got)
	}
}

func TestRewriteCompaction(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if err := l.Append([]byte(fmt.Sprintf("stale-%d-padding-padding", i))); err != nil {
			t.Fatal(err)
		}
	}
	before := l.Stats()
	live := [][]byte{[]byte("live-1"), []byte("live-2")}
	if err := l.Rewrite(slices.Values(live)); err != nil {
		t.Fatal(err)
	}
	after := l.Stats()
	if after.Segments != 1 || after.Compactions != 1 {
		t.Fatalf("compaction did not collapse segments: before %d, after %+v", before.Segments, after)
	}
	got := collect(t, l)
	if len(got) != 2 || string(got[0]) != "live-1" || string(got[1]) != "live-2" {
		t.Fatalf("post-compaction replay = %q", got)
	}
	// Appends continue on the compacted log and survive a reopen.
	if err := l.Append([]byte("after-compact")); err != nil {
		t.Fatal(err)
	}
	l.Close()
	l2, err := Open(dir, Options{SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := collect(t, l2); len(got) != 3 || string(got[2]) != "after-compact" {
		t.Fatalf("replay after compaction+reopen = %q", got)
	}
}

// TestRewriteEmptyResetsLog: compacting to nothing (every campaign settled)
// leaves an empty, appendable log.
func TestRewriteEmptyResetsLog(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	l.Append([]byte("gone-soon")) //nolint:errcheck
	if err := l.Rewrite(nil); err != nil {
		t.Fatal(err)
	}
	if got := collect(t, l); len(got) != 0 {
		t.Fatalf("reset log still replays %q", got)
	}
	if err := l.Append([]byte("fresh")); err != nil {
		t.Fatal(err)
	}
	if got := collect(t, l); len(got) != 1 || string(got[0]) != "fresh" {
		t.Fatalf("replay after reset = %q", got)
	}
}

func TestSyncPolicies(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SyncEvery: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 0; i < 7; i++ {
		if err := l.Append([]byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if st := l.Stats(); st.Fsyncs != 2 {
		t.Errorf("SyncEvery=3 after 7 appends: %d fsyncs, want 2", st.Fsyncs)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if st := l.Stats(); st.Fsyncs != 3 {
		t.Errorf("explicit Sync not counted: %+v", l.Stats())
	}

	never, err := Open(t.TempDir(), Options{SyncEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer never.Close()
	for i := 0; i < 5; i++ {
		never.Append([]byte("y")) //nolint:errcheck
	}
	if st := never.Stats(); st.Fsyncs != 0 {
		t.Errorf("SyncEvery=-1 issued %d fsyncs", st.Fsyncs)
	}
}

func TestAppendTooLarge(t *testing.T) {
	l, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Append(make([]byte, MaxRecordBytes+1)); err != ErrTooLarge {
		t.Fatalf("oversized append error = %v, want ErrTooLarge", err)
	}
}

func TestClosedLog(t *testing.T) {
	l, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	if err := l.Append([]byte("x")); err != ErrClosed {
		t.Errorf("append on closed log = %v, want ErrClosed", err)
	}
	if err := l.Replay(func([]byte) error { return nil }); err != ErrClosed {
		t.Errorf("replay on closed log = %v, want ErrClosed", err)
	}
	if err := l.Close(); err != nil {
		t.Errorf("double close = %v", err)
	}
}

// TestAppendAllocatesNothing: once the log has written a frame at least as
// large, an Append stages its frame in the log's buffer and allocates
// nothing, fsync included.
func TestAppendAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	l, err := Open(t.TempDir(), Options{SegmentBytes: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	small, large := bytes.Repeat([]byte("s"), 100), bytes.Repeat([]byte("L"), 40<<10)
	if err := l.Append(large); err != nil {
		t.Fatal(err)
	}
	i := 0
	allocs := testing.AllocsPerRun(50, func() {
		i++
		p := small
		if i%2 == 0 {
			p = large
		}
		if err := l.Append(p); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("a steady-state Append allocates %.1f times, want 0", allocs)
	}
}

// TestRewriteAllocatesNoFramePerRecord: compacting to 2,000 records, over
// 64 KiB of frames, allocates no more than compacting to one.
func TestRewriteAllocatesNoFramePerRecord(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	l, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	rewrite := func(records [][]byte) float64 {
		return testing.AllocsPerRun(10, func() {
			if err := l.Rewrite(slices.Values(records)); err != nil {
				t.Fatal(err)
			}
		})
	}
	many := slices.Repeat([][]byte{bytes.Repeat([]byte("r"), 100)}, 2_000)
	one, all := rewrite(many[:1]), rewrite(many)
	if all > one {
		t.Errorf("a Rewrite of %d records allocates %.1f times, of one %.1f", len(many), all, one)
	}
	if got := collect(t, l); len(got) != len(many) || !bytes.Equal(got[len(got)-1], many[0]) {
		t.Fatalf("the compacted log replays %d records, want %d", len(got), len(many))
	}
}

// TestConcurrentAppendRewriteStats: appenders, a compactor and a Stats
// reader share one log and so its staging buffer. After a reopen the log
// replays the last compaction's records, then appended records only, each
// writer's in its order, including every record appended after the last
// compaction returned.
func TestConcurrentAppendRewriteStats(t *testing.T) {
	dir := t.TempDir()
	opt := Options{SegmentBytes: 32 << 10, SyncEvery: -1}
	l, err := Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	const writers, perWriter, rewrites = 4, 150, 20
	var epoch atomic.Int64 // compactions that have returned
	type ack struct {
		seq   int
		epoch int64 // compactions returned before the append started
	}
	acks := make([][]ack, writers)
	payload := func(w, seq int) []byte {
		// Sizes from a few bytes to 20 KiB: the staging buffer grows under
		// both methods, and frames straddle Rewrite's 64 KiB writes.
		return append([]byte(fmt.Sprintf("w%d-%d|", w, seq)), bytes.Repeat([]byte{byte('a' + w)}, (seq*7919)%(20<<10))...)
	}
	var lastRewrite [][]byte
	var wg sync.WaitGroup
	for w := range writers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each writer appends at least once after the last compaction.
			for seq := 0; seq < perWriter || epoch.Load() < rewrites; seq++ {
				e := epoch.Load()
				if err := l.Append(payload(w, seq)); err != nil {
					t.Error(err)
					return
				}
				acks[w] = append(acks[w], ack{seq, e})
			}
		}()
	}
	wg.Add(2)
	go func() {
		defer wg.Done()
		for r := range rewrites {
			recs := [][]byte{[]byte(fmt.Sprintf("rw%d-a", r)), bytes.Repeat([]byte{'z'}, 70<<10), []byte(fmt.Sprintf("rw%d-b", r))}
			if err := l.Rewrite(slices.Values(recs)); err != nil {
				t.Error(err)
				return
			}
			lastRewrite = recs
			epoch.Add(1)
		}
	}()
	go func() {
		defer wg.Done()
		var prev Stats
		for range 200 {
			st := l.Stats()
			if st.Appends < prev.Appends || st.Compactions < prev.Compactions || st.BytesWritten < prev.BytesWritten {
				t.Errorf("stats went backwards: %+v after %+v", st, prev)
				return
			}
			prev = st
		}
	}()
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l, err = Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	got := collect(t, l)
	if len(got) < len(lastRewrite) || !slices.EqualFunc(got[:len(lastRewrite)], lastRewrite, bytes.Equal) {
		t.Fatalf("the log does not start with the last compaction's %d records", len(lastRewrite))
	}
	next := make([]int, writers) // lowest seq each writer may still replay
	seen := map[string]bool{}
	for _, p := range got[len(lastRewrite):] {
		var w, seq int
		if _, err := fmt.Sscanf(string(p), "w%d-%d|", &w, &seq); err != nil || w < 0 || w >= writers || !bytes.Equal(p, payload(w, seq)) {
			t.Fatalf("the log replays a record no writer appended: %.40q", p)
		}
		if seq < next[w] {
			t.Fatalf("writer %d's record %d replays after its record %d", w, seq, next[w]-1)
		}
		next[w] = seq + 1
		seen[fmt.Sprintf("%d-%d", w, seq)] = true
	}
	for w, as := range acks {
		for _, a := range as {
			if a.epoch == rewrites && !seen[fmt.Sprintf("%d-%d", w, a.seq)] {
				t.Errorf("writer %d's record %d, appended after the last compaction, is lost", w, a.seq)
			}
		}
	}
}
