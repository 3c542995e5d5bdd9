package main

import (
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"galsim/internal/campaign"
	"galsim/internal/isa"
	"galsim/internal/pipeline"
	"galsim/internal/workload"
)

// phases times the phases of traced simulation units. A traced unit makes
// the calls campaign.ExecuteOpts makes for a cold start without taps, one
// at a time so each is timed from outside, and feeds the core through a
// source wrapper that times every instruction it delivers. This file uses
// only calls older than snapshots, so it also builds against earlier
// revisions of the simulator for before/after attribution.
type phases struct {
	mu                          sync.Mutex
	canonical, newSource, build []time.Duration
	run, next                   time.Duration
	committed, fetched, cycles  uint64
}

// execute runs one unit and files the time of each of its phases.
func (p *phases) execute(spec campaign.RunSpec) (st pipeline.Stats, err error) {
	t0 := time.Now()
	spec = spec.Canonical()
	cfg, err := spec.PipelineConfig()
	if err != nil {
		return pipeline.Stats{}, err
	}
	t1 := time.Now()
	inner, name, err := spec.NewSource()
	if err != nil {
		return pipeline.Stats{}, err
	}
	t2 := time.Now()
	src, timed := wrapSource(inner)
	defer func() {
		// The core panics on a violated invariant; report it as an error,
		// as campaign.ExecuteOpts does.
		if rec := recover(); rec != nil {
			err = fmt.Errorf("traced run %s/%s failed: %v", spec.Machine, spec.Benchmark, rec)
		}
	}()
	core := pipeline.NewCoreWithSource(cfg, name, src)
	t3 := time.Now()
	st = core.Run(spec.Instructions)
	t4 := time.Now()

	p.mu.Lock()
	defer p.mu.Unlock()
	p.canonical = append(p.canonical, t1.Sub(t0))
	p.newSource = append(p.newSource, t2.Sub(t1))
	p.build = append(p.build, t3.Sub(t2))
	p.run += t4.Sub(t3)
	p.next += timed.next
	p.committed += st.Committed
	p.fetched += st.Fetched
	for _, c := range st.Cycles {
		p.cycles += c
	}
	return st, nil
}

// layers are the phase metrics of the units executed so far.
func (p *phases) layers() map[string]float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	instrs := float64(p.committed)
	return map[string]float64{
		"pipeline.run_ns_per_instr":   float64(p.run) / instrs,
		"pipeline.host_ns_per_cycle":  float64(p.run) / float64(p.cycles),
		"pipeline.useful_fetch_ratio": float64(p.committed) / float64(p.fetched),
		"pipeline.build_ms":           median(msOf(p.build)),
		"workload.next_ns_per_instr":  float64(p.next) / instrs,
		"workload.new_source_us":      1e3 * median(msOf(p.newSource)),
		"campaign.canonical_us":       1e3 * median(msOf(p.canonical)),
	}
}

// timedSource forwards an instruction source, timing every instruction it
// delivers.
type timedSource struct {
	src  workload.InstrSource
	next time.Duration
}

func (s *timedSource) Next() *isa.Instr {
	start := time.Now()
	in := s.src.Next()
	s.next += time.Since(start)
	return in
}

func (s *timedSource) NextWrongPath() *isa.Instr {
	start := time.Now()
	in := s.src.NextWrongPath()
	s.next += time.Since(start)
	return in
}

func (s *timedSource) StartWrongPath(target uint64) { s.src.StartWrongPath(target) }
func (s *timedSource) EndWrongPath()                { s.src.EndWrongPath() }
func (s *timedSource) InWrongPath() bool            { return s.src.InWrongPath() }
func (s *timedSource) CurrentPC() uint64            { return s.src.CurrentPC() }

// poolUser and snapshotter mirror workload.PoolUser and
// workload.Snapshotter, which the pipeline probes its source for. They are
// declared here because revisions before snapshots lack the latter.
type poolUser interface{ UsePool(*isa.Pool) bool }

type snapshotter interface {
	CaptureSourceState() (json.RawMessage, error)
	RestoreSourceState(json.RawMessage) error
}

// wrapSource returns src timed, offering the optional interfaces src
// offers — so the core allocates from its arena and snapshots exactly as
// it would unwrapped — and the timer to read afterwards.
func wrapSource(src workload.InstrSource) (workload.InstrSource, *timedSource) {
	t := &timedSource{src: src}
	pu, pool := src.(poolUser)
	sn, snap := src.(snapshotter)
	switch {
	case pool && snap:
		return struct {
			*timedSource
			poolUser
			snapshotter
		}{t, pu, sn}, t
	case pool:
		return struct {
			*timedSource
			poolUser
		}{t, pu}, t
	case snap:
		return struct {
			*timedSource
			snapshotter
		}{t, sn}, t
	}
	return t, t
}
