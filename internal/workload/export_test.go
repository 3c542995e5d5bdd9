package workload

// Generated returns the number of correct-path instructions produced.
func (g *Generator) Generated() uint64 { return g.generated }

// Switches returns the number of phase transitions so far.
func (p *PhasedGenerator) Switches() uint64 { return p.switches }
