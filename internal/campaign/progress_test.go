package campaign

import (
	"context"
	"sync"
	"testing"

	"galsim/internal/pipeline"
)

// batchRunners are the engine's two batch entry points; both run through
// the one batch loop and must report progress and errors identically.
var batchRunners = []struct {
	name string
	run  func(e *Engine, ctx context.Context, specs []RunSpec, fn ProgressFunc) ([]pipeline.Stats, error)
}{
	{"RunAllProgress", (*Engine).RunAllProgress},
	{"RunAllWarm", func(e *Engine, ctx context.Context, specs []RunSpec, fn ProgressFunc) ([]pipeline.Stats, error) {
		return e.RunAllWarm(ctx, specs, 500, fn)
	}},
}

// TestEngineRunAllProgress: every unit produces exactly one snapshot,
// snapshots are monotone, the terminal snapshot accounts for the whole
// batch, and duplicate specs surface as cache hits — on the plain and the
// warm-shared batch alike.
func TestEngineRunAllProgress(t *testing.T) {
	for _, r := range batchRunners {
		t.Run(r.name, func(t *testing.T) {
			e := NewEngine(4)
			specs := []RunSpec{
				{Benchmark: "gcc", Machine: "base", Instructions: 2000},
				{Benchmark: "gcc", Machine: "gals", Instructions: 2000},
				{Benchmark: "li", Machine: "base", Instructions: 2000},
				{Benchmark: "gcc", Machine: "base", Instructions: 2000}, // dup of unit 0
			}

			var (
				mu    sync.Mutex
				snaps []Progress
			)
			stats, err := r.run(e, context.Background(), specs, func(p Progress) {
				mu.Lock()
				snaps = append(snaps, p)
				mu.Unlock()
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(stats) != len(specs) {
				t.Fatalf("got %d stats", len(stats))
			}
			if len(snaps) != len(specs) {
				t.Fatalf("got %d progress snapshots, want %d", len(snaps), len(specs))
			}
			last := -1
			for i, p := range snaps {
				if p.Total != len(specs) {
					t.Errorf("snapshot %d total = %d", i, p.Total)
				}
				if done := p.Completed + p.Failed; done <= last {
					t.Errorf("snapshot %d not monotone: %+v", i, p)
				} else {
					last = done
				}
			}
			final := snaps[len(snaps)-1]
			if final.Completed != len(specs) || final.Failed != 0 {
				t.Errorf("terminal snapshot %+v", final)
			}
			if final.CacheHits == 0 {
				t.Errorf("duplicate unit did not register a cache hit: %+v", final)
			}

			// A failing unit reports Failed exactly once and the batch errors.
			bad := []RunSpec{
				{Benchmark: "gcc", Instructions: 1000},
				{Benchmark: "no-such-benchmark", Instructions: 1000},
			}
			failed := -1
			_, err = r.run(e, context.Background(), bad, func(p Progress) {
				mu.Lock()
				failed = p.Failed
				mu.Unlock()
			})
			if err == nil {
				t.Fatal("bad batch succeeded")
			}
			if failed != 1 {
				t.Errorf("terminal Failed = %d, want 1 (-1: no progress reported)", failed)
			}
		})
	}
}

// TestRunUnitsOnFallback: a Backend that lacks progress support still
// works through RunUnitsOn, delivering a single terminal snapshot.
func TestRunUnitsOnFallback(t *testing.T) {
	b := plainBackend{NewEngine(2)}
	u, err := RunSpec{Benchmark: "gcc", Instructions: 1000}.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	var snaps []Progress
	stats, err := RunUnitsOn(context.Background(), b, []*Unit{u}, 0,
		func(p Progress) { snaps = append(snaps, p) })
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 1 {
		t.Fatalf("got %d stats", len(stats))
	}
	if len(snaps) != 1 || snaps[0].Completed != 1 || snaps[0].Total != 1 {
		t.Errorf("fallback snapshots = %+v", snaps)
	}
}

// plainBackend hides the engine's ProgressBackend implementation.
type plainBackend struct{ e *Engine }

func (b plainBackend) RunAll(ctx context.Context, specs []RunSpec) ([]pipeline.Stats, error) {
	return b.e.RunAll(ctx, specs)
}
