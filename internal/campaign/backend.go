package campaign

import (
	"context"
	"errors"
	"log/slog"

	"galsim/internal/pipeline"
)

// ErrBackendBusy is the sentinel wrapped by backends whose admission queue
// is full: the batch was rejected up front, nothing was enqueued, and the
// caller should retry later (the galsimd service maps it to HTTP 429 with a
// Retry-After header). The local Engine never returns it; the cluster
// Coordinator does when Config.MaxQueuedJobs is set.
var ErrBackendBusy = errors.New("backend queue is full")

// Priority classifies a batch for backends with priority-aware queues: an
// interactive request (a human waiting on POST /run) is leased ahead of
// bulk work (sweep grids). Backends without lanes — the local Engine —
// ignore it.
type Priority int

const (
	// PriorityBulk is the default: throughput work, leased after any
	// pending interactive jobs.
	PriorityBulk Priority = iota
	// PriorityInteractive jumps the bulk queue.
	PriorityInteractive
)

func (p Priority) String() string {
	if p == PriorityInteractive {
		return "interactive"
	}
	return "bulk"
}

type priorityKey struct{}

// WithPriority returns ctx carrying the batch priority for RunAll calls.
func WithPriority(ctx context.Context, p Priority) context.Context {
	return context.WithValue(ctx, priorityKey{}, p)
}

// PriorityOf returns the priority carried by ctx (PriorityBulk if none).
func PriorityOf(ctx context.Context) Priority {
	if p, ok := ctx.Value(priorityKey{}).(Priority); ok {
		return p
	}
	return PriorityBulk
}

// Backend executes a batch of RunSpecs and returns their stats in input
// order. It is the campaign engine's execution seam: the local Engine (a
// GOMAXPROCS worker pool with a content-addressed result cache) is the
// default, and internal/cluster provides a distributed implementation that
// shards the batch across a fleet of galsimd workers. Both must be
// deterministic — for a given spec batch the returned stats are
// byte-identical regardless of scheduling, worker count, or retries — which
// the differential tests in internal/cluster enforce.
//
// Implementations must be safe for concurrent use and must honour ctx
// cancellation by returning promptly with the context's error.
type Backend interface {
	RunAll(ctx context.Context, specs []RunSpec) ([]pipeline.Stats, error)
}

// Progress is a point-in-time view of a batch execution. Completed counts
// units whose stats are final (including cache hits); Failed counts units
// whose execution errored (at most one for backends that stop at the first
// error). Completed+Failed never exceeds Total, and snapshots delivered to
// one callback are monotone in Completed+Failed.
type Progress struct {
	Total     int `json:"total"`
	Completed int `json:"completed"`
	Failed    int `json:"failed"`
	// CacheHits counts completed units served from a result cache rather
	// than simulated. Backends without cache visibility (e.g. a cluster
	// coordinator, whose workers cache locally) report zero.
	CacheHits int `json:"cache_hits"`
}

// ProgressFunc receives progress snapshots during a batch execution. It may
// be called concurrently from worker goroutines and must not block for
// long; it must not call back into the backend.
type ProgressFunc func(Progress)

// ProgressBackend is optionally implemented by backends that can report
// per-unit completion while a batch runs. Both the local Engine and the
// cluster Coordinator implement it; the base Backend interface stays
// unchanged so third-party backends keep working.
type ProgressBackend interface {
	Backend
	RunAllProgress(ctx context.Context, specs []RunSpec, fn ProgressFunc) ([]pipeline.Stats, error)
}

// WarmBackend is optionally implemented by backends that can share warm-up
// prefixes across a batch: units with equal warm identities
// simulate their first `warmup` committed instructions once, fork the
// captured snapshot, and resume per unit. Sharing is pure execution tuning —
// a WarmBackend must return stats byte-identical to RunAll's for the same
// batch. The local Engine implements it; the cluster Coordinator does not
// (its workers hold no shared memory), so sweeps fall back to unshared
// execution there.
type WarmBackend interface {
	Backend
	RunAllWarm(ctx context.Context, specs []RunSpec, warmup uint64, fn ProgressFunc) ([]pipeline.Stats, error)
}

// RunUnitsOn executes checked units on b and returns their stats in unit
// order, sharing warm-up prefixes when warmup is non-zero and b is a
// WarmBackend. The local Engine runs the units as given; any other backend
// gets their canonical specs. fn receives b's progress snapshots, or one
// terminal snapshot from a backend without progress support.
func RunUnitsOn(ctx context.Context, b Backend, units []*Unit, warmup uint64, fn ProgressFunc) ([]pipeline.Stats, error) {
	if e, ok := b.(*Engine); ok {
		return e.runUnits(ctx, len(units), func(i int) (*Unit, error) { return units[i], nil }, warmup, fn)
	}
	specs := make([]RunSpec, len(units))
	for i, u := range units {
		specs[i] = u.spec
	}
	if wb, ok := b.(WarmBackend); ok && warmup > 0 {
		return wb.RunAllWarm(ctx, specs, warmup, fn)
	} else if warmup > 0 {
		slog.Default().Info("campaign: backend does not support warm-up sharing; running the sweep unshared",
			"units", len(units), "warmup", warmup)
	}
	if pb, ok := b.(ProgressBackend); ok && fn != nil {
		return pb.RunAllProgress(ctx, specs, fn)
	}
	stats, err := b.RunAll(ctx, specs)
	if fn != nil {
		p := Progress{Total: len(specs), Completed: len(specs)}
		if err != nil {
			p.Completed, p.Failed = 0, 1
		}
		fn(p)
	}
	return stats, err
}

// Engine is the local, in-process Backend.
var (
	_ ProgressBackend = (*Engine)(nil)
	_ WarmBackend     = (*Engine)(nil)
)
