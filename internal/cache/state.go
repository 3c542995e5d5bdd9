package cache

import "fmt"

// WayState is one cache way in snapshot form.
type WayState struct {
	Tag        uint64 `json:"tag"`
	Valid      bool   `json:"valid,omitempty"`
	LRU        uint64 `json:"lru,omitempty"`
	Prefetched bool   `json:"pf,omitempty"`
	Dirty      bool   `json:"dirty,omitempty"`
}

// State is one cache's snapshot form: the full tag store (sets × ways, in
// index order) plus the LRU tick and the counters.
type State struct {
	Sets  [][]WayState `json:"sets"`
	Tick  uint64       `json:"tick"`
	Stats Stats        `json:"stats"`
}

// CaptureState snapshots the cache.
func (c *Cache) CaptureState() State {
	nsets := len(c.ways) / c.assoc
	st := State{Tick: c.tick, Stats: c.stats, Sets: make([][]WayState, nsets)}
	all := make([]WayState, len(c.ways))
	for i, w := range c.ways {
		all[i] = WayState{Tag: w.tag, Valid: w.valid, LRU: w.lru, Prefetched: w.prefetched, Dirty: w.dirty}
	}
	for s := range st.Sets {
		st.Sets[s] = all[s*c.assoc : (s+1)*c.assoc : (s+1)*c.assoc]
	}
	return st
}

// RestoreState reinstates a captured state into a cache built with the same
// geometry.
func (c *Cache) RestoreState(st State) error {
	if nsets := len(c.ways) / c.assoc; len(st.Sets) != nsets {
		return fmt.Errorf("cache %q: restored set count %d does not match geometry (%d sets)",
			c.cfg.Name, len(st.Sets), nsets)
	}
	for s, ws := range st.Sets {
		if len(ws) != c.assoc {
			return fmt.Errorf("cache %q: restored set %d has %d ways, geometry has %d",
				c.cfg.Name, s, len(ws), c.assoc)
		}
	}
	for s, ws := range st.Sets {
		for w, wst := range ws {
			c.ways[s*c.assoc+w] = way{tag: wst.Tag, valid: wst.Valid, lru: wst.LRU,
				prefetched: wst.Prefetched, dirty: wst.Dirty}
		}
	}
	c.tick = st.Tick
	c.stats = st.Stats
	return nil
}

// MemoryState is main memory's snapshot form.
type MemoryState struct {
	Accesses uint64 `json:"accesses"`
}

// CaptureState snapshots the memory level.
func (m *Memory) CaptureState() MemoryState { return MemoryState{Accesses: m.accesses} }

// RestoreState reinstates a captured state.
func (m *Memory) RestoreState(st MemoryState) { m.accesses = st.Accesses }

// HierarchyState is the full memory system's snapshot form.
type HierarchyState struct {
	L1I State       `json:"l1i"`
	L1D State       `json:"l1d"`
	L2  State       `json:"l2"`
	Mem MemoryState `json:"mem"`
}

// CaptureState snapshots all levels.
func (h *Hierarchy) CaptureState() HierarchyState {
	return HierarchyState{
		L1I: h.L1I.CaptureState(),
		L1D: h.L1D.CaptureState(),
		L2:  h.L2.CaptureState(),
		Mem: h.Mem.CaptureState(),
	}
}

// RestoreState reinstates a captured state into a hierarchy of the same
// geometry.
func (h *Hierarchy) RestoreState(st HierarchyState) error {
	if err := h.L1I.RestoreState(st.L1I); err != nil {
		return err
	}
	if err := h.L1D.RestoreState(st.L1D); err != nil {
		return err
	}
	if err := h.L2.RestoreState(st.L2); err != nil {
		return err
	}
	h.Mem.RestoreState(st.Mem)
	return nil
}
