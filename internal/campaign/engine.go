package campaign

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"sync"
	"sync/atomic"

	"galsim/internal/pipeline"
	"galsim/internal/snapshot"
	"galsim/internal/timeline"
)

// TimelineTap configures the microarchitecture timeline of one execution.
// Timelines are a local observation tap, like OnCommit and trace capture:
// they never join RunSpec, so they cannot perturb cache keys or results.
type TimelineTap struct {
	Recorder *timeline.Recorder
	// Detail records per-item push/pop instants on cross-domain links.
	Detail bool
	// StallThreshold (decode cycles without a commit) marks the recorder
	// triggered for a flight-recorder dump; 0 disables.
	StallThreshold uint64
}

// CacheStats snapshots the engine's memoization counters.
type CacheStats struct {
	Hits    uint64 `json:"hits"`    // runs served from the cache (or joined in flight)
	Misses  uint64 `json:"misses"`  // runs actually simulated
	Entries int    `json:"entries"` // completed runs currently held
}

// entry is one cached (or in-flight) run; done is closed when st/err are set.
type entry struct {
	done chan struct{}
	st   pipeline.Stats
	err  error
}

const numShards = 32

// shard is one lock-striped slice of the content-addressed cache.
type shard struct {
	mu      sync.Mutex
	entries map[string]*entry
}

// Engine executes RunSpecs with bounded concurrency and memoizes every
// completed run in a sharded in-memory cache keyed by RunSpec.Key. Every
// execution takes one path: RunOpts per unit, and one batch loop (under
// RunAll, RunAllProgress and RunAllWarm) that calls RunOpts. At most
// `workers` simulations execute at any moment, across all concurrent
// callers. It is safe for concurrent use; concurrent requests for the same
// key share a single simulation (singleflight).
type Engine struct {
	workers int
	sem     chan struct{} // global simulation-concurrency bound
	shards  [numShards]shard
	hits    atomic.Uint64
	misses  atomic.Uint64

	// Warm-up sharing counters (see RunAllWarm).
	warmGroups atomic.Uint64 // prefix groups that actually shared a snapshot
	warmSaved  atomic.Uint64 // warm-up instructions not re-simulated
}

// NewEngine builds an engine with the given worker-pool width; workers <= 0
// selects GOMAXPROCS.
func NewEngine(workers int) *Engine {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	e := &Engine{workers: workers, sem: make(chan struct{}, workers)}
	for i := range e.shards {
		e.shards[i].entries = map[string]*entry{}
	}
	return e
}

// Workers returns the pool width.
func (e *Engine) Workers() int { return e.workers }

var (
	sharedOnce   sync.Once
	sharedEngine *Engine
)

// Shared returns the process-wide default engine (GOMAXPROCS workers).
// galsim.RunMany and the experiment drivers both execute through it, so
// overlapping specs issued via either API are simulated exactly once per
// process and share one result cache.
func Shared() *Engine {
	sharedOnce.Do(func() { sharedEngine = NewEngine(0) })
	return sharedEngine
}

// Stats returns a snapshot of the cache counters.
func (e *Engine) Stats() CacheStats {
	s := CacheStats{Hits: e.hits.Load(), Misses: e.misses.Load()}
	for i := range e.shards {
		sh := &e.shards[i]
		sh.mu.Lock()
		s.Entries += len(sh.entries)
		sh.mu.Unlock()
	}
	return s
}

func (e *Engine) shardFor(key string) *shard {
	// key is hex SHA-256: decode the leading byte (two nibbles) so the
	// index is uniform over 0..255 rather than over the 16 hex digits.
	return &e.shards[(hexNibble(key[0])<<4|hexNibble(key[1]))%numShards]
}

func hexNibble(c byte) byte {
	if c >= 'a' {
		return c - 'a' + 10
	}
	return c - '0'
}

// Run executes one unit through the cache with no taps: RunOpts with zero
// ExecOpts.
func (e *Engine) Run(ctx context.Context, spec RunSpec) (pipeline.Stats, error) {
	st, _, err := e.RunOpts(ctx, spec, ExecOpts{})
	return st, err
}

// RunOpts is the engine's one per-unit entry point. It executes a unit
// through the cache: a previously completed identical spec returns
// instantly, an in-flight one is joined, and a new one is simulated on the
// calling goroutine once a worker slot frees up, so concurrent callers never
// exceed the engine's worker bound. hit reports a result served from a
// completed entry or joined in flight — the signal Progress.CacheHits
// aggregates. ctx cancellation abandons the wait (an already-started
// simulation still completes and populates the cache).
//
// opts act only when this call simulates: on a hit no tap fires, no
// snapshot is captured and Resume is unused, because the result was
// produced elsewhere. Results are cache-grade whatever opts holds — taps
// only observe, and the pipeline differential gate proves captured and
// resumed executions byte-identical to cold ones.
func (e *Engine) RunOpts(ctx context.Context, spec RunSpec, opts ExecOpts) (pipeline.Stats, bool, error) {
	// Resolve once: the key below and the simulation both use the trace and
	// snapshot bytes read here, so a file swapped after this point can
	// change neither.
	r, err := resolve(spec)
	if err != nil {
		return pipeline.Stats{}, false, err
	}
	key := r.spec.key()
	sh := e.shardFor(key)
	for {
		if err := ctx.Err(); err != nil {
			return pipeline.Stats{}, false, err
		}
		sh.mu.Lock()
		if ent, ok := sh.entries[key]; ok {
			sh.mu.Unlock()
			e.hits.Add(1)
			select {
			case <-ent.done:
				// The owner may have given up waiting for a worker slot
				// because ITS context was cancelled; that must not poison
				// a joiner whose context is still live. The failed entry
				// was already deleted, so loop and take ownership.
				if (errors.Is(ent.err, context.Canceled) || errors.Is(ent.err, context.DeadlineExceeded)) && ctx.Err() == nil {
					continue
				}
				return ent.st, true, ent.err
			case <-ctx.Done():
				return pipeline.Stats{}, false, ctx.Err()
			}
		}
		ent := &entry{done: make(chan struct{})}
		sh.entries[key] = ent
		sh.mu.Unlock()

		select {
		case e.sem <- struct{}{}:
		case <-ctx.Done():
			ent.err = ctx.Err()
		}
		if ent.err == nil {
			e.misses.Add(1)
			ent.st, ent.err = r.execute(opts)
			<-e.sem
		}
		if ent.err != nil {
			// Do not cache failures: a later identical request re-validates.
			sh.mu.Lock()
			delete(sh.entries, key)
			sh.mu.Unlock()
		}
		close(ent.done)
		return ent.st, false, ent.err
	}
}

// RunAll fans specs out over the worker pool and returns their stats in
// input order. The first error cancels the remaining units and is returned;
// a cancelled ctx stops the pool promptly (units not yet started are never
// simulated). Duplicate specs within one call are simulated once.
func (e *Engine) RunAll(ctx context.Context, specs []RunSpec) ([]pipeline.Stats, error) {
	return e.RunAllProgress(ctx, specs, nil)
}

// RunAllProgress is RunAll with live progress reporting: fn (when non-nil)
// receives a monotone Progress snapshot after every completed unit, from
// the completing worker goroutines. Implements ProgressBackend.
func (e *Engine) RunAllProgress(ctx context.Context, specs []RunSpec, fn ProgressFunc) ([]pipeline.Stats, error) {
	return e.runBatch(ctx, specs, fn, func(int) (ExecOpts, bool) { return ExecOpts{}, true })
}

// pass selects the units one stage of a batch runs: for unit i it returns
// the options to run it with, or false to leave it to another pass.
type pass func(i int) (ExecOpts, bool)

// runBatch is the engine's one batch loop, under both RunAllProgress and
// RunAllWarm. Passes run in order, each over at most Workers() goroutines
// that execute the units it selects through RunOpts, so a later pass may
// read what an earlier one captured. Results land by unit index; fn sees a
// Progress snapshot after every finished unit; the first error cancels the
// rest of the batch and is returned. A unit that simulates from a Resume
// snapshot adds the snapshot's committed count to the warm-up savings.
func (e *Engine) runBatch(ctx context.Context, specs []RunSpec, fn ProgressFunc, passes ...pass) ([]pipeline.Stats, error) {
	if len(specs) == 0 {
		if fn != nil {
			fn(Progress{})
		}
		return nil, nil
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		mu       sync.Mutex
		prog     = Progress{Total: len(specs)}
		firstErr error
		results  = make([]pipeline.Stats, len(specs))
	)
	// finish records unit i's outcome; false means the worker should stop.
	finish := func(i int, st pipeline.Stats, hit bool, err error) bool {
		mu.Lock()
		if err != nil {
			// Only the winning (first) error counts as a failed unit; the
			// cancellation errors it induces in the other workers are not
			// failures of their units.
			if firstErr != nil {
				mu.Unlock()
				return false
			}
			firstErr = fmt.Errorf("campaign: unit %d (%s/%s): %w",
				i, specs[i].MachineName(), specs[i].WorkloadName(), err)
			cancel()
			prog.Failed++
		} else {
			results[i] = st
			prog.Completed++
			if hit {
				prog.CacheHits++
			}
		}
		snap := prog
		mu.Unlock()
		if fn != nil {
			fn(snap)
		}
		return err == nil
	}
	type job struct {
		i    int
		opts ExecOpts
	}
	for _, sel := range passes {
		next := make(chan job)
		var wg sync.WaitGroup
		for w := 0; w < min(e.workers, len(specs)); w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := range next {
					if ctx.Err() != nil {
						return
					}
					st, hit, err := e.RunOpts(ctx, specs[j.i], j.opts)
					if err == nil && !hit && j.opts.Resume != nil {
						e.warmSaved.Add(j.opts.Resume.Committed)
					}
					if !finish(j.i, st, hit, err) {
						return
					}
				}
			}()
		}
	feed:
		for i := range specs {
			opts, ok := sel(i)
			if !ok {
				continue
			}
			select {
			case next <- job{i, opts}:
			case <-ctx.Done():
				break feed
			}
		}
		close(next)
		wg.Wait()
	}
	if firstErr != nil {
		return nil, firstErr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return results, nil
}

// WarmSharing reports the engine's lifetime warm-up sharing activity: how
// many prefix groups actually forked a shared snapshot, and how many
// committed warm-up instructions resumed runs skipped re-simulating.
func (e *Engine) WarmSharing() (groups, savedInstructions uint64) {
	return e.warmGroups.Load(), e.warmSaved.Load()
}

// RunAllWarm is RunAllProgress with warm-up sharing: units that share a
// warm identity (same machine, workload and run settings, any
// instruction budget) simulate their common prefix once. It is a two-pass
// plan over the same batch loop. The first pass runs each group's leader
// (its first unit) and every unit without prefix peers; a leader captures a
// snapshot at `warmup` committed instructions — a pure observation, so its
// own result is untouched. The second pass runs the followers, resuming
// from their leader's snapshot instead of re-warming; a leader served from
// the cache captured nothing, and its followers run cold. Results are
// byte-identical to RunAll's (the pipeline differential gate proves
// restore ≡ straight-line run) and populate the same cache.
func (e *Engine) RunAllWarm(ctx context.Context, specs []RunSpec, warmup uint64, fn ProgressFunc) ([]pipeline.Stats, error) {
	if warmup == 0 {
		return e.RunAllProgress(ctx, specs, fn)
	}
	// leader[i] is the first unit of i's warm group, or i itself. A unit
	// that cannot share a prefix — invalid, already snapshot-seeded, or its
	// whole budget inside the warm-up — leads a group of one and runs cold.
	leader := make([]int, len(specs))
	budget := make([]uint64, len(specs))
	followed := make([]bool, len(specs))
	first := map[string]int{}
	shared := 0
	// The plan resolves each unit only to group it; the batch loop resolves
	// it again when it runs. Handing the planned units over instead would
	// hold every replay's loaded trace from here until its run: one copy
	// per unit at once, where the batch loop holds at most Workers().
	for i := range specs {
		leader[i] = i
		r, err := resolve(specs[i])
		if err != nil || r.snap != nil || warmup >= r.spec.Instructions {
			continue
		}
		budget[i] = r.spec.Instructions
		k := r.warmKey()
		l, ok := first[k]
		if !ok {
			first[k] = i
			continue
		}
		if !followed[l] {
			followed[l] = true
			shared++
		}
		leader[i] = l
	}
	slog.Default().Info("campaign: warm-up sharing plan",
		"units", len(specs), "shared_groups", shared, "warmup", warmup)

	// snaps[l] is written by leader l's simulation in the first pass and
	// read by the second pass's feeder, after the first pass has joined.
	snaps := make([]*snapshot.Snapshot, len(specs))
	leaders := func(i int) (ExecOpts, bool) {
		if leader[i] != i {
			return ExecOpts{}, false
		}
		if !followed[i] {
			return ExecOpts{}, true
		}
		return ExecOpts{Warmup: warmup, OnSnapshot: func(sn *snapshot.Snapshot) { snaps[i] = sn }}, true
	}
	followers := func(i int) (ExecOpts, bool) {
		l := leader[i]
		if l == i {
			return ExecOpts{}, false
		}
		// The capture lands on the first decode-cycle boundary at or past
		// warmup, so it can overshoot a budget just above warmup: such a
		// follower runs cold.
		sn := snaps[l]
		if sn != nil && sn.Committed >= budget[i] {
			sn = nil
		}
		return ExecOpts{Resume: sn}, true
	}
	stats, err := e.runBatch(ctx, specs, fn, leaders, followers)
	for _, sn := range snaps {
		if sn != nil {
			e.warmGroups.Add(1)
		}
	}
	return stats, err
}
