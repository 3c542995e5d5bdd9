package campaign

import (
	"math"
	"path/filepath"
	"runtime"
	"testing"

	"galsim/internal/snapshot"
)

// TestSnapshotWithNaNSlowdownRefusesTheSlowdown: a spec that restores a
// valid snapshot and sets a slowdown JSON cannot carry gets the slowdown's
// error, not a panic from marshaling the spec for the snapshot's warm key.
func TestSnapshotWithNaNSlowdownRefusesTheSlowdown(t *testing.T) {
	path := filepath.Join(t.TempDir(), "warm.gsnp")
	spec := RunSpec{Benchmark: "gcc", Machine: "gals", Instructions: 4_000}
	if _, err := ExecuteOpts(spec, ExecOpts{Warmup: 2_000, SnapshotOut: path}); err != nil {
		t.Fatal(err)
	}
	spec.Snapshot = &SnapshotRef{Path: path}
	spec.Slowdowns = map[string]float64{"all": math.NaN()}
	const want = `campaign: slowdown "all" = NaN must be a finite factor >= 1 (1 = full speed, 2 = half frequency)`
	if err := spec.Validate(); err == nil || err.Error() != want {
		t.Fatalf("Validate = %v, want %s", err, want)
	}
}

// gccCapture returns the envelope of the GALS gcc capture at 32k of a 40k
// run: the capture the snapshot format's size is judged by.
func gccCapture(t *testing.T) []byte {
	t.Helper()
	var snap *snapshot.Snapshot
	spec := RunSpec{Benchmark: "gcc", Machine: "gals", Instructions: 40_000}
	if _, err := ExecuteOpts(spec, ExecOpts{Warmup: 32_000, OnSnapshot: func(s *snapshot.Snapshot) { snap = s }}); err != nil {
		t.Fatal(err)
	}
	b, err := snap.EncodeBytes()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestCaptureIsSmall: the capture is at least five times smaller than the
// 734 KB that format version 1 (a JSON body) took for it.
func TestCaptureIsSmall(t *testing.T) {
	const v1Bytes = 734_000
	if n := len(gccCapture(t)); n > v1Bytes/5 {
		t.Fatalf("the 32k gals gcc capture is %d bytes, want at most %d (a fifth of version 1's)", n, v1Bytes/5)
	}
}

// TestCheckpointAllocatesLittle: capturing a checkpoint and encoding it
// allocates at most three times the envelope: the envelope once, and the
// capture's scratch growth while the buffers it reuses are warming.
func TestCheckpointAllocatesLittle(t *testing.T) {
	spec := RunSpec{Benchmark: "gcc", Machine: "gals", Instructions: 40_000}
	var envelopes int
	encode := func(s *snapshot.Snapshot) {
		b, err := s.EncodeBytes()
		if err != nil {
			t.Error(err)
		}
		envelopes += len(b)
	}
	allocs := func(opts ExecOpts) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := ExecuteOpts(spec, opts); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	with := ExecOpts{CheckpointEvery: 16_000, OnSnapshot: encode}
	allocs(ExecOpts{}) // fill the pools a finished unit hands its tables to
	allocs(with)
	best := 0.0
	for range 3 {
		envelopes = 0
		cold, warm := allocs(ExecOpts{}), allocs(with)
		if ratio := (float64(warm) - float64(cold)) / float64(envelopes); best == 0 || ratio < best {
			best = ratio
		}
	}
	if best > 3 {
		t.Fatalf("two checkpoints allocated %.2f times their envelopes, want at most 3", best)
	}
	t.Logf("checkpoints allocate %.2f times their envelopes", best)
}
