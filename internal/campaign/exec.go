package campaign

import (
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"slices"

	"galsim/internal/isa"
	"galsim/internal/pipeline"
	"galsim/internal/snapshot"
	"galsim/internal/trace"
)

// ExecOpts bundles the observation taps and snapshot controls of one
// execution. Everything here observes or seeds a single run without joining
// its cache identity: commit hooks, trace capture and timelines never alter
// results, warm-up capture is a pure read of the machine state (proved
// non-perturbing by the pipeline differential gate), and a Resume restore
// is byte-equivalent to having simulated the prefix (same gate) — only a
// RunSpec.Snapshot file reference, whose content the engine cannot vouch
// for, joins the spec's key.
//
// ExecuteOpts takes it directly; Engine.RunUnit takes it through the cache,
// where it acts only when the call simulates. The engine's batch loop, the
// cluster worker and galsimd all reach the simulator that way.
type ExecOpts struct {
	// OnCommit receives every committed instruction in program order.
	OnCommit func(*isa.Instr)
	// TraceOut records the workload stream in the trace format.
	TraceOut io.Writer
	// Tap attaches a microarchitecture timeline recorder.
	Tap TimelineTap
	// Warmup, when non-zero, captures the full machine state at the first
	// decode-cycle boundary with at least this many committed instructions.
	// It must be below the spec's instruction budget and needs at least one
	// sink (SnapshotOut or OnSnapshot).
	Warmup uint64
	// SnapshotOut writes the Warmup capture to this file in envelope form.
	SnapshotOut string
	// OnSnapshot receives each capture in memory — the Warmup capture, and
	// every CheckpointEvery capture when periodic checkpointing is on.
	OnSnapshot func(*snapshot.Snapshot)
	// CheckpointEvery, when non-zero, captures a snapshot at every multiple
	// of this many committed instructions below the budget (resuming runs
	// start above the restored count), delivered to OnSnapshot — the cluster
	// worker's crash-recovery cadence.
	CheckpointEvery uint64
	// Resume restores this in-memory snapshot as the run's starting state:
	// the programmatic equivalent of RunSpec.Snapshot, used where the
	// snapshot never touches disk (sweep warm-up sharing, cluster job
	// checkpoints). The snapshot must carry the spec's own warm key.
	Resume *snapshot.Snapshot
}

// Execute runs one unit directly, bypassing any cache. onCommit, when
// non-nil, receives every committed instruction in program order. Panics
// from the simulator core (e.g. the deadlock guard) are converted to errors
// so a malformed unit cannot take down a whole campaign or a server.
func Execute(spec RunSpec, onCommit func(*isa.Instr)) (pipeline.Stats, error) {
	return ExecuteOpts(spec, ExecOpts{OnCommit: onCommit})
}

// ExecuteOpts runs one unit with the full set of taps and snapshot
// controls, bypassing any cache. It and Engine.RunOpts share one path:
// resolve the spec, then simulate what resolve read.
func ExecuteOpts(spec RunSpec, opts ExecOpts) (pipeline.Stats, error) {
	u, err := resolve(spec)
	if err != nil {
		return pipeline.Stats{}, err
	}
	return u.execute(opts)
}

// execute simulates the unit from the trace and snapshot resolve read and
// checked. The options are checked before opts.TraceOut is first written.
func (u *Unit) execute(opts ExecOpts) (st pipeline.Stats, err error) {
	if u.spec.Trace != nil && u.trace == nil || u.spec.Snapshot != nil && u.snap == nil {
		if u, err = resolve(u.spec); err != nil { // a light unit: read its inputs again
			return pipeline.Stats{}, err
		}
	}
	cfg := u.config()
	resume, err := u.resumeSnapshot(opts)
	if err != nil {
		return pipeline.Stats{}, err
	}
	targets, err := u.snapshotTargets(opts, resume)
	if err != nil {
		return pipeline.Stats{}, err
	}
	src, name := u.source(), u.workload
	var rec *trace.Recorder
	if opts.TraceOut != nil {
		if resume != nil {
			return pipeline.Stats{}, fmt.Errorf("campaign: cannot record a trace of a resumed run: the stream before the snapshot was consumed by the capturing run; record from a cold start")
		}
		specJSON, merr := json.Marshal(u.spec)
		if merr != nil {
			return pipeline.Stats{}, fmt.Errorf("campaign: marshaling spec for trace header: %w", merr)
		}
		tw, werr := trace.NewWriter(opts.TraceOut, trace.Meta{
			Name:          name,
			Instructions:  u.spec.Instructions,
			SpecJSON:      specJSON,
			MachineDigest: u.spec.MachineDigest(),
		})
		if werr != nil {
			return pipeline.Stats{}, werr
		}
		rec = trace.NewRecorder(src, tw)
		src = rec
	}
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("campaign: run %s/%s failed: %v", u.spec.MachineName(), name, p)
		}
	}()
	var core *pipeline.Core
	if resume != nil {
		var cs pipeline.CoreState
		if uerr := json.Unmarshal(resume.State, &cs); uerr != nil {
			return pipeline.Stats{}, fmt.Errorf("campaign: decoding snapshot state: %w", uerr)
		}
		core, err = pipeline.RestoreCore(cfg, name, src, &cs)
		if err != nil {
			return pipeline.Stats{}, fmt.Errorf("campaign: restoring snapshot: %w", err)
		}
	} else {
		core = pipeline.NewCoreWithSource(cfg, name, src)
	}
	var snapErr error
	if len(targets) > 0 {
		capture := func(commits uint64, cs *pipeline.CoreState) {
			if snapErr != nil {
				return
			}
			snapErr = u.deliverSnapshot(opts, commits, cs)
		}
		if serr := core.SnapshotAt(targets, capture); serr != nil {
			return pipeline.Stats{}, serr
		}
	}
	if opts.OnCommit != nil {
		core.OnCommit(opts.OnCommit)
	}
	if opts.Tap.Recorder != nil {
		core.AttachTimeline(opts.Tap.Recorder, opts.Tap.Detail, opts.Tap.StallThreshold)
	}
	st = core.Run(u.spec.Instructions)
	// Deferred past the snapshot and trace sinks below; a run that panicked
	// never gets here, so its tables are left to the garbage collector.
	defer core.Release()
	if snapErr != nil {
		return pipeline.Stats{}, fmt.Errorf("campaign: writing snapshot: %w", snapErr)
	}
	if rec != nil {
		if cerr := rec.Close(); cerr != nil {
			return pipeline.Stats{}, fmt.Errorf("campaign: writing trace: %w", cerr)
		}
	}
	return st, nil
}

// resumeSnapshot returns the run's starting state: the in-memory Resume
// snapshot, or the snapshot file resolve read, or nil for a cold start. The
// returned snapshot carries this run's warm identity.
func (u *Unit) resumeSnapshot(opts ExecOpts) (*snapshot.Snapshot, error) {
	snap := opts.Resume
	switch {
	case snap != nil && u.snap != nil:
		return nil, fmt.Errorf("campaign: both an in-memory resume snapshot and RunSpec.Snapshot are set; use one")
	case u.snap != nil:
		return u.snap, nil
	case snap == nil:
		return nil, nil
	}
	if want := u.warmKey(); snap.SpecKey != want {
		return nil, fmt.Errorf("campaign: resume snapshot was captured under a different run configuration (its spec key %.12s..., this run's warm key %.12s...)",
			snap.SpecKey, want)
	}
	if snap.Committed >= u.spec.Instructions {
		return nil, fmt.Errorf("campaign: resume snapshot already holds %d committed instructions, at or beyond this run's %d-instruction budget",
			snap.Committed, u.spec.Instructions)
	}
	return snap, nil
}

// CheckWarmup reports a warm-up capture point at or beyond the budget.
func (u *Unit) CheckWarmup(w uint64) error {
	if w >= u.spec.Instructions {
		return fmt.Errorf("campaign: warmup %d must be below the run's %d-instruction budget", w, u.spec.Instructions)
	}
	return nil
}

// snapshotTargets expands the Warmup and CheckpointEvery settings into the
// ascending commit-count trigger list SnapshotAt takes.
func (u *Unit) snapshotTargets(opts ExecOpts, resume *snapshot.Snapshot) ([]uint64, error) {
	if opts.Warmup == 0 && opts.CheckpointEvery == 0 {
		if opts.OnSnapshot != nil {
			return nil, fmt.Errorf("campaign: OnSnapshot is set but neither Warmup nor CheckpointEvery says when to capture")
		}
		return nil, nil
	}
	if opts.SnapshotOut == "" && opts.OnSnapshot == nil {
		return nil, fmt.Errorf("campaign: Warmup/CheckpointEvery need a snapshot sink; set SnapshotOut or OnSnapshot")
	}
	var from uint64
	if resume != nil {
		from = resume.Committed
	}
	set := map[uint64]bool{}
	if w := opts.Warmup; w > 0 {
		if err := u.CheckWarmup(w); err != nil {
			return nil, err
		}
		if w > from {
			set[w] = true
		}
	}
	if opts.CheckpointEvery > 0 {
		if opts.SnapshotOut != "" {
			return nil, fmt.Errorf("campaign: periodic checkpoints deliver multiple snapshots; use OnSnapshot, not SnapshotOut")
		}
		for n := opts.CheckpointEvery; n < u.spec.Instructions; n += opts.CheckpointEvery {
			if n > from {
				set[n] = true
			}
		}
	}
	return slices.Sorted(maps.Keys(set)), nil
}

// deliverSnapshot wraps one captured core state in the envelope and hands
// it to the configured sinks.
func (u *Unit) deliverSnapshot(opts ExecOpts, commits uint64, cs *pipeline.CoreState) error {
	stateJSON, err := json.Marshal(cs)
	if err != nil {
		return fmt.Errorf("encoding state: %w", err)
	}
	specJSON, err := json.Marshal(u.spec)
	if err != nil {
		return fmt.Errorf("encoding spec: %w", err)
	}
	snap := &snapshot.Snapshot{
		SpecKey:   u.warmKey(),
		SpecJSON:  specJSON,
		Committed: commits,
		State:     stateJSON,
	}
	if opts.SnapshotOut != "" {
		if err := snapshot.WriteFile(opts.SnapshotOut, snap); err != nil {
			return err
		}
	}
	if opts.OnSnapshot != nil {
		opts.OnSnapshot(snap)
	}
	return nil
}
