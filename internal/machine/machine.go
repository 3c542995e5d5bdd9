// Package machine defines the declarative machine-configuration surface of
// the simulator: a MachineSpec names clock domains (each with a nominal
// frequency, an optional voltage table and a DVFS policy), assigns every
// pipeline structure — fetch, decode/rename/ROB/commit, integer, FP,
// load/store — to one of them, and tunes the synchronization FIFOs on each
// link class. The paper's two machines are just the two built-in specs:
// "base" puts all five structures in one domain under a global clock grid,
// "gals" gives each structure its own domain. Any other partitioning of the
// pipeline — the design space the paper's methodology explores — is a spec
// a user can write in JSON and run through the library, the galsimd
// service, or a galsim-fleet worker fleet.
//
// Specs are validated (with anti-DoS caps, since they cross the HTTP
// boundary), canonicalized (defaults made explicit so equal machines hash
// equally), and content-addressed by Digest, which is how campaign cache
// keys and trace provenance identify a topology.
package machine

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"strings"

	"galsim/internal/dvfs"
	"galsim/internal/httpjson"
	"galsim/internal/pipeline"
	"galsim/internal/simtime"
)

// Structures lists the pipeline structures a spec assigns to clock domains,
// in pipeline order. The returned slice is a fresh copy on every call.
func Structures() []string {
	names := make([]string, 0, int(pipeline.NumDomains))
	for d := pipeline.DomainID(0); d < pipeline.NumDomains; d++ {
		names = append(names, d.String())
	}
	return names
}

// DVFS policies.
const (
	// PolicyStatic fixes the domain's frequency and voltage for the run
	// (the per-run slowdown still applies). The default.
	PolicyStatic = "static"
	// PolicyDynamic lets the online DVFS controller retune the domain at
	// runtime (when the run enables it). Only domains consisting solely of
	// execution structures (int, fp, mem) may be dynamic: their issue
	// queues provide the controller's feedback signal.
	PolicyDynamic = "dynamic"
)

// Validation caps. Specs are untrusted input (they arrive over HTTP), so
// every variable-size axis has a ceiling.
const (
	maxNameLen    = 64
	maxVoltPoints = 64
)

// Bounds on a domain's nominal frequency and a link's geometry. Package
// explore checks its search space against them, so a search spec fails at
// parse time rather than on its first candidate.
const (
	MinFreqGHz   = 0.01
	MaxFreqGHz   = 100.0
	MaxLinkDepth = 4096
	MaxSyncEdges = 64
)

// VoltPoint is one entry of a domain's voltage table.
type VoltPoint struct {
	// Slowdown is the clock slowdown factor this point applies at (1 = full
	// speed).
	Slowdown float64 `json:"slowdown"`
	// Voltage is the supply voltage in volts; at most the nominal supply.
	Voltage float64 `json:"voltage"`
}

// DomainSpec declares one clock domain.
type DomainSpec struct {
	// Name labels the domain: the key used by slowdown maps and diagnostics.
	Name string `json:"name"`
	// FreqGHz is the domain's nominal (full-speed) clock frequency; 0
	// selects the machine's 1 GHz nominal.
	FreqGHz float64 `json:"freq_ghz,omitempty"`
	// DVFS is the domain's scaling policy: "static" (default) or "dynamic".
	DVFS string `json:"dvfs,omitempty"`
	// Voltages, when non-empty, is the domain's voltage table: the supply
	// voltage at each slowdown, interpolated piecewise-linearly and clamped
	// at the ends (discrete silicon operating points). Empty selects the
	// paper's Equation 1 delay model.
	Voltages []VoltPoint `json:"voltages,omitempty"`
}

// LinkSpec overrides one link class's synchronization FIFO geometry; zero
// fields keep the machine defaults (16-deep FIFOs, two-flop synchronizers).
type LinkSpec struct {
	// Depth is the FIFO capacity in entries (same-domain links use it as
	// their pipe-latch depth).
	Depth int `json:"depth,omitempty"`
	// SyncEdges is the flag-synchronizer depth in consumer clock edges: the
	// latency a cross-domain transfer pays (2 = two-flop).
	SyncEdges int `json:"sync_edges,omitempty"`
}

// LinkClasses lists the link-class names accepted by Spec.Links, in
// pipeline order. The returned slice is a fresh copy on every call.
func LinkClasses() []string {
	names := make([]string, 0, int(pipeline.NumLinkClasses))
	for cl := pipeline.LinkClass(0); cl < pipeline.NumLinkClasses; cl++ {
		names = append(names, cl.String())
	}
	return names
}

// Spec is a complete machine declaration. The JSON form is the wire format
// accepted by galsim.Options, the galsimd /machines endpoint and the CLI
// -machine flag.
type Spec struct {
	// Name identifies the machine (registry key, result label).
	Name string `json:"name"`
	// Domains lists the clock domains. Order is semantic: it fixes the
	// random starting-phase draws of the local clocks, the ordering of
	// simultaneous clock edges, and the DVFS controller's scan order.
	Domains []DomainSpec `json:"domains"`
	// Assign maps every pipeline structure (see Structures) to a domain
	// name.
	Assign map[string]string `json:"assign"`
	// Links optionally overrides link classes (see LinkClasses).
	Links map[string]LinkSpec `json:"links,omitempty"`
	// GlobalClockGrid charges a chip-wide clock distribution grid every
	// cycle — the fully synchronous machine's hierarchy. Requires a single
	// domain; partitioned machines have only per-structure local grids.
	GlobalClockGrid bool `json:"global_clock_grid,omitempty"`
}

// UnknownError reports a machine name that names neither a built-in spec
// nor (where a registry applies) an uploaded one.
type UnknownError struct{ Name string }

// Error implements error.
func (e UnknownError) Error() string {
	return fmt.Sprintf("unknown machine %q (built-in machines: %s; or supply a full machine spec)",
		e.Name, strings.Join(BuiltinNames(), ", "))
}

// Base returns the built-in fully synchronous machine: every structure on
// one "core" clock behind a global distribution grid.
func Base() Spec {
	assign := map[string]string{}
	for _, st := range Structures() {
		assign[st] = "core"
	}
	return Spec{
		Name:            "base",
		Domains:         []DomainSpec{{Name: "core"}},
		Assign:          assign,
		GlobalClockGrid: true,
	}
}

// GALS returns the built-in five-domain machine of the paper's Figure 3(b):
// one clock domain per structure, execution domains dynamically scalable.
func GALS() Spec {
	domains := make([]DomainSpec, 0, int(pipeline.NumDomains))
	assign := map[string]string{}
	for d := pipeline.DomainID(0); d < pipeline.NumDomains; d++ {
		ds := DomainSpec{Name: d.String()}
		if d == pipeline.DomInt || d == pipeline.DomFP || d == pipeline.DomMem {
			ds.DVFS = PolicyDynamic
		}
		domains = append(domains, ds)
		assign[d.String()] = d.String()
	}
	return Spec{Name: "gals", Domains: domains, Assign: assign}
}

// BuiltinNames lists the built-in machine names. The returned slice is a
// fresh copy on every call.
func BuiltinNames() []string { return []string{"base", "gals"} }

// Builtins returns the built-in machine specs, in BuiltinNames order.
func Builtins() []Spec { return []Spec{Base(), GALS()} }

// ByName resolves a built-in machine name; "" selects base, matching the
// zero-value default everywhere else in the API. Unknown names yield an
// UnknownError (errors.As-able), so callers can list the alternatives.
func ByName(name string) (Spec, error) {
	switch name {
	case "", "base":
		return Base(), nil
	case "gals":
		return GALS(), nil
	default:
		return Spec{}, UnknownError{Name: name}
	}
}

// execStructures marks the structures whose issue queues feed the dynamic
// DVFS controller.
func execStructure(d pipeline.DomainID) bool {
	return d == pipeline.DomInt || d == pipeline.DomFP || d == pipeline.DomMem
}

// Validate reports the first problem with the spec, phrased for end users
// of the library, the CLI and the HTTP API alike.
func (s Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("machine: spec without name")
	}
	if len(s.Name) > maxNameLen {
		return fmt.Errorf("machine: name longer than %d bytes", maxNameLen)
	}
	if len(s.Domains) == 0 {
		return fmt.Errorf("machine: %s: no clock domains", s.Name)
	}
	if len(s.Domains) > int(pipeline.NumDomains) {
		return fmt.Errorf("machine: %s: %d clock domains for %d structures; every domain must own at least one structure",
			s.Name, len(s.Domains), pipeline.NumDomains)
	}
	domIdx := map[string]int{}
	for i, d := range s.Domains {
		if d.Name == "" {
			return fmt.Errorf("machine: %s: domain %d has no name", s.Name, i)
		}
		if len(d.Name) > maxNameLen {
			return fmt.Errorf("machine: %s: domain %d name longer than %d bytes", s.Name, i, maxNameLen)
		}
		if d.Name == "all" {
			return fmt.Errorf("machine: %s: domain name %q is reserved for uniform slowdowns", s.Name, d.Name)
		}
		if _, dup := domIdx[d.Name]; dup {
			return fmt.Errorf("machine: %s: duplicate domain name %q", s.Name, d.Name)
		}
		domIdx[d.Name] = i
		if f := d.FreqGHz; f != 0 && (math.IsNaN(f) || f < MinFreqGHz || f > MaxFreqGHz) {
			return fmt.Errorf("machine: %s: domain %q frequency %v GHz outside [%v, %v]",
				s.Name, d.Name, f, MinFreqGHz, MaxFreqGHz)
		}
		switch d.DVFS {
		case "", PolicyStatic, PolicyDynamic:
		default:
			return fmt.Errorf("machine: %s: domain %q has unknown dvfs policy %q (want %q or %q)",
				s.Name, d.Name, d.DVFS, PolicyStatic, PolicyDynamic)
		}
		if len(d.Voltages) > maxVoltPoints {
			return fmt.Errorf("machine: %s: domain %q voltage table has %d points, above the %d limit",
				s.Name, d.Name, len(d.Voltages), maxVoltPoints)
		}
		for i, p := range d.Voltages {
			switch {
			case math.IsNaN(p.Slowdown) || math.IsInf(p.Slowdown, 0) || p.Slowdown < 1:
				return fmt.Errorf("machine: %s: domain %q voltage point %d: slowdown %v must be a finite factor >= 1",
					s.Name, d.Name, i, p.Slowdown)
			case i > 0 && p.Slowdown <= d.Voltages[i-1].Slowdown:
				return fmt.Errorf("machine: %s: domain %q voltage table must list strictly increasing slowdowns", s.Name, d.Name)
			case math.IsNaN(p.Voltage) || p.Voltage <= 0 || p.Voltage > dvfs.Default.VNominal:
				return fmt.Errorf("machine: %s: domain %q voltage point %d: voltage %v outside (0, %v] (the nominal supply)",
					s.Name, d.Name, i, p.Voltage, dvfs.Default.VNominal)
			}
		}
	}
	owned := make([]bool, len(s.Domains))
	for d := pipeline.DomainID(0); d < pipeline.NumDomains; d++ {
		domName, ok := s.Assign[d.String()]
		if !ok {
			return fmt.Errorf("machine: %s: structure %q is not assigned to a clock domain (assign all of %v)",
				s.Name, d.String(), Structures())
		}
		g, ok := domIdx[domName]
		if !ok {
			return fmt.Errorf("machine: %s: structure %q assigned to undeclared domain %q (declared: %v)",
				s.Name, d.String(), domName, s.DomainNames())
		}
		owned[g] = true
	}
	for st := range s.Assign {
		if _, err := structureByName(st); err != nil {
			return fmt.Errorf("machine: %s: %w", s.Name, err)
		}
	}
	for g, ok := range owned {
		if !ok {
			return fmt.Errorf("machine: %s: clock domain %q owns no pipeline structure", s.Name, s.Domains[g].Name)
		}
	}
	for g, d := range s.Domains {
		if d.DVFS != PolicyDynamic {
			continue
		}
		for st, domName := range s.Assign {
			if domIdx[domName] != g {
				continue
			}
			if sd, _ := structureByName(st); !execStructure(sd) {
				return fmt.Errorf("machine: %s: domain %q is dynamic but owns structure %q; only execution structures (int, fp, mem) provide the issue-queue feedback dynamic DVFS needs",
					s.Name, d.Name, st)
			}
		}
	}
	for class, lp := range s.Links {
		if _, err := linkClassByName(class); err != nil {
			return fmt.Errorf("machine: %s: %w", s.Name, err)
		}
		if lp.Depth < 0 || lp.Depth > MaxLinkDepth {
			return fmt.Errorf("machine: %s: link %q depth %d outside [0, %d]", s.Name, class, lp.Depth, MaxLinkDepth)
		}
		if lp.SyncEdges < 0 || lp.SyncEdges > MaxSyncEdges {
			return fmt.Errorf("machine: %s: link %q sync edges %d outside [0, %d]", s.Name, class, lp.SyncEdges, MaxSyncEdges)
		}
	}
	if s.GlobalClockGrid && len(s.Domains) != 1 {
		return fmt.Errorf("machine: %s: a global clock grid implies a single clock domain (got %d); partitioned machines have only local grids",
			s.Name, len(s.Domains))
	}
	return nil
}

// DomainNames lists the spec's clock domain names in declaration order —
// the keys its runs accept as per-domain slowdowns. The returned slice is a
// fresh copy on every call.
func (s Spec) DomainNames() []string {
	names := make([]string, 0, len(s.Domains))
	for _, d := range s.Domains {
		names = append(names, d.Name)
	}
	return names
}

// DynamicCapable reports whether any domain opts into the online DVFS
// controller.
func (s Spec) DynamicCapable() bool {
	for _, d := range s.Domains {
		if d.DVFS == PolicyDynamic {
			return true
		}
	}
	return false
}

// Canonical returns the spec with every default made explicit — frequencies
// at 1 GHz, policies at "static", no-op link overrides removed — so that
// equal machines marshal to equal bytes and hash equally regardless of how
// sparsely they were written.
func (s Spec) Canonical() Spec {
	domains := make([]DomainSpec, len(s.Domains))
	for i, d := range s.Domains {
		if d.FreqGHz == 0 {
			d.FreqGHz = 1.0
		}
		if d.DVFS == "" {
			d.DVFS = PolicyStatic
		}
		if len(d.Voltages) > 0 {
			d.Voltages = append([]VoltPoint(nil), d.Voltages...)
		}
		domains[i] = d
	}
	s.Domains = domains
	assign := make(map[string]string, len(s.Assign))
	for k, v := range s.Assign {
		assign[k] = v
	}
	s.Assign = assign
	var links map[string]LinkSpec
	for class, lp := range s.Links {
		if lp == (LinkSpec{}) {
			continue
		}
		if links == nil {
			links = make(map[string]LinkSpec, len(s.Links))
		}
		links[class] = lp
	}
	s.Links = links
	return s
}

// Digest returns the spec's content address: a hex SHA-256 of its canonical
// JSON form (encoding/json writes map keys sorted, so equal specs hash
// equally). The digest is what campaign cache keys and trace provenance
// record as "which machine".
func (s Spec) Digest() string {
	b, err := json.Marshal(s.Canonical())
	if err != nil {
		// Validated specs contain only marshalable fields; unvalidated ones
		// may carry NaN/Inf floats, which must not panic a Digest used in
		// logs — fall back to hashing the error text.
		b = []byte("unmarshalable:" + err.Error())
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// Parse decodes and validates a JSON machine spec, rejecting unknown fields
// so typos in hand-written machines fail loudly.
func Parse(data []byte) (Spec, error) {
	var s Spec
	if err := httpjson.DecodeStrict(bytes.NewReader(data), &s); err != nil {
		return Spec{}, fmt.Errorf("machine: decoding spec: %w", err)
	}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// Topology translates a spec into the pipeline's clock topology. It checks
// nothing: the spec must have passed Validate.
func (s Spec) Topology() pipeline.Topology {
	s = s.Canonical()
	t := pipeline.Topology{
		Domains:    make([]pipeline.TopoDomain, len(s.Domains)),
		GlobalGrid: s.GlobalClockGrid,
	}
	domIdx := map[string]int{}
	for i, d := range s.Domains {
		domIdx[d.Name] = i
		td := pipeline.TopoDomain{
			Name:     d.Name,
			Nominal:  periodFor(d.FreqGHz),
			Scalable: d.DVFS == PolicyDynamic,
		}
		for _, p := range d.Voltages {
			td.VoltTable = append(td.VoltTable, pipeline.VoltPoint{Slowdown: p.Slowdown, Voltage: p.Voltage})
		}
		t.Domains[i] = td
	}
	for d := pipeline.DomainID(0); d < pipeline.NumDomains; d++ {
		t.Of[d] = domIdx[s.Assign[d.String()]]
	}
	for class, lp := range s.Links {
		cl, _ := linkClassByName(class)
		t.Links[cl] = pipeline.LinkParams{Capacity: lp.Depth, SyncEdges: lp.SyncEdges}
	}
	return t
}

// periodFor converts a nominal frequency to a clock period.
func periodFor(ghz float64) simtime.Duration {
	return simtime.Duration(math.Round(float64(simtime.Nanosecond) / ghz))
}

// structureByName resolves a pipeline structure name.
func structureByName(name string) (pipeline.DomainID, error) {
	for d := pipeline.DomainID(0); d < pipeline.NumDomains; d++ {
		if d.String() == name {
			return d, nil
		}
	}
	return 0, fmt.Errorf("unknown pipeline structure %q (structures: %v)", name, Structures())
}

// linkClassByName resolves a link-class name.
func linkClassByName(name string) (pipeline.LinkClass, error) {
	for cl := pipeline.LinkClass(0); cl < pipeline.NumLinkClasses; cl++ {
		if cl.String() == name {
			return cl, nil
		}
	}
	return 0, fmt.Errorf("unknown link class %q (classes: %v)", name, LinkClasses())
}
