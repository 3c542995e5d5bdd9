package bpred

import "fmt"

// State is the predictor's snapshot form: every table, the speculative
// global history, and the accuracy counters.
type State struct {
	Table       []uint8  `json:"table"`
	History     uint64   `json:"history"`
	BTBTag      []uint64 `json:"btb_tag"`
	BTBTgt      []uint64 `json:"btb_tgt"`
	Lookups     uint64   `json:"lookups"`
	Mispredicts uint64   `json:"mispredicts"`
	BTBHits     uint64   `json:"btb_hits"`
	BTBMisses   uint64   `json:"btb_misses"`
}

// CaptureState snapshots the predictor.
func (p *Predictor) CaptureState() State {
	return State{
		Table:       append([]uint8(nil), p.table...),
		History:     p.history,
		BTBTag:      append([]uint64(nil), p.btbTag...),
		BTBTgt:      append([]uint64(nil), p.btbTgt...),
		Lookups:     p.lookups,
		Mispredicts: p.mispredicts,
		BTBHits:     p.btbHits,
		BTBMisses:   p.btbMisses,
	}
}

// RestoreState reinstates a captured state into a predictor built with the
// same configuration (table geometries must match).
func (p *Predictor) RestoreState(st State) error {
	if len(st.Table) != len(p.table) || len(st.BTBTag) != len(p.btbTag) ||
		len(st.BTBTgt) != len(p.btbTgt) {
		return fmt.Errorf("bpred: restored table sizes (%d/%d/%d) do not match this predictor's configuration (%d/%d/%d)",
			len(st.Table), len(st.BTBTag), len(st.BTBTgt),
			len(p.table), len(p.btbTag), len(p.btbTgt))
	}
	copy(p.table, st.Table)
	p.history = st.History
	copy(p.btbTag, st.BTBTag)
	copy(p.btbTgt, st.BTBTgt)
	p.lookups = st.Lookups
	p.mispredicts = st.Mispredicts
	p.btbHits = st.BTBHits
	p.btbMisses = st.BTBMisses
	return nil
}
