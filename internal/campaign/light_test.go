package campaign

import (
	"context"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// recordTrace records a 3,000-instruction gcc trace into a temp file and
// returns its path.
func recordTrace(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "gcc.trace")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ExecuteOpts(RunSpec{Benchmark: "gcc", Instructions: 3_000}, ExecOpts{TraceOut: f}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// watchedResolve resolves spec and counts into freed when the trace it
// loaded is collected.
func watchedResolve(t *testing.T, spec RunSpec, freed *atomic.Int32) (*Unit, error) {
	t.Helper()
	u, err := resolve(spec)
	if err != nil || u.trace == nil {
		t.Fatalf("resolve loaded no trace: %v", err)
	}
	runtime.AddCleanup(u.trace, func(c *atomic.Int32) { c.Add(1) }, freed)
	return u, err
}

// collected runs the collector until freed reaches want or a deadline
// passes, and reports whether it did.
func collected(freed *atomic.Int32, want int32) bool {
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
		runtime.GC()
		if freed.Load() >= want {
			return true
		}
		time.Sleep(10 * time.Millisecond)
	}
	return false
}

// TestLightUnitKeepsNoTraceAlive checks that a unit as RunSpec.Resolve
// returns it lets the trace its check loaded be collected, though the unit
// itself is still held.
func TestLightUnitKeepsNoTraceAlive(t *testing.T) {
	spec := RunSpec{Trace: &TraceRef{Path: recordTrace(t)}, Instructions: 3_000}
	var freed atomic.Int32
	u, _ := watchedResolve(t, spec, &freed)
	l := u.light()
	u = nil
	if !collected(&freed, 1) {
		t.Error("the light unit keeps its resolve's trace reachable")
	}
	if l.spec.Trace.SHA256 == "" || l.key == "" {
		t.Errorf("light unit lost its pinned spec or key: %+v", l)
	}
}

// TestWarmPlanKeepsNoTraceAlive runs a batch of replays with warm-up
// sharing on one worker and checks, when the first unit finishes, that
// every trace the plan loaded has been let go: the plan holds the units,
// not their traces.
func TestWarmPlanKeepsNoTraceAlive(t *testing.T) {
	path := recordTrace(t)
	budgets := []uint64{2_000, 2_500, 3_000}
	var freed atomic.Int32
	unit := func(i int) (*Unit, error) {
		return watchedResolve(t, RunSpec{Trace: &TraceRef{Path: path}, Instructions: budgets[i]}, &freed)
	}
	var checked, held bool
	_, err := NewEngine(1).runUnits(context.Background(), len(budgets), unit, 1_000, func(Progress) {
		if !checked {
			checked, held = true, !collected(&freed, int32(len(budgets)))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if !checked || held {
		t.Errorf("after the first unit, %d of the plan's %d traces were collected", freed.Load(), len(budgets))
	}
}
