package machine

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"galsim/internal/pipeline"
)

// triDomain is a 3-domain partitioning: a merged front end, a merged
// int+fp execution cluster, and the memory system on its own clock.
func triDomain() Spec {
	return Spec{
		Name: "tri",
		Domains: []DomainSpec{
			{Name: "front"},
			{Name: "exec", DVFS: PolicyDynamic},
			{Name: "memsys"},
		},
		Assign: map[string]string{
			"fetch": "front", "decode": "front",
			"int": "exec", "fp": "exec",
			"mem": "memsys",
		},
	}
}

func TestBuiltinsValidateAndTranslate(t *testing.T) {
	for _, sp := range Builtins() {
		if err := sp.Validate(); err != nil {
			t.Fatalf("builtin %s: %v", sp.Name, err)
		}
	}
	base := Base().Topology()
	if len(base.Domains) != 1 || !base.GlobalGrid || !base.Synchronous() {
		t.Errorf("base topology = %+v, want one global-grid domain", base)
	}
	gals := GALS().Topology()
	if len(gals.Domains) != int(pipeline.NumDomains) || gals.GlobalGrid {
		t.Errorf("gals topology = %+v, want five local-grid domains", gals)
	}
	scalable := 0
	for _, d := range gals.Domains {
		if d.Scalable {
			scalable++
		}
	}
	if scalable != 3 {
		t.Errorf("gals scalable domains = %d, want the three execution domains", scalable)
	}
}

func TestByName(t *testing.T) {
	if sp, err := ByName(""); err != nil || sp.Name != "base" {
		t.Errorf(`ByName("") = %v, %v; want the base machine`, sp.Name, err)
	}
	_, err := ByName("warp9")
	var unknown UnknownError
	if !errors.As(err, &unknown) || unknown.Name != "warp9" {
		t.Fatalf("ByName(warp9) error = %#v, want UnknownError", err)
	}
	for _, builtin := range BuiltinNames() {
		if !strings.Contains(err.Error(), builtin) {
			t.Errorf("unknown-machine error %q does not list built-in %q", err, builtin)
		}
	}
}

func TestTriDomainTopology(t *testing.T) {
	topo := triDomain().Topology()
	if len(topo.Domains) != 3 {
		t.Fatalf("domains = %d, want 3", len(topo.Domains))
	}
	// fetch and decode share a clock; int and fp share a clock; mem is alone.
	if topo.Cross(pipeline.DomFetch, pipeline.DomDecode) || topo.Cross(pipeline.DomInt, pipeline.DomFP) {
		t.Error("merged structures must not cross a clock boundary")
	}
	if !topo.Cross(pipeline.DomDecode, pipeline.DomInt) || !topo.Cross(pipeline.DomFP, pipeline.DomMem) {
		t.Error("separate domains must cross a clock boundary")
	}
	if !topo.Domains[1].Scalable || topo.Domains[0].Scalable || topo.Domains[2].Scalable {
		t.Errorf("scalable flags = %+v, want only the exec domain", topo.Domains)
	}
}

func TestValidateRejects(t *testing.T) {
	mutate := func(f func(*Spec)) Spec {
		s := triDomain()
		f(&s)
		return s
	}
	cases := []struct {
		name string
		spec Spec
		want string
	}{
		{"no name", mutate(func(s *Spec) { s.Name = "" }), "without name"},
		{"no domains", Spec{Name: "x"}, "no clock domains"},
		{"six domains", mutate(func(s *Spec) {
			s.Domains = append(s.Domains, DomainSpec{Name: "x"}, DomainSpec{Name: "y"}, DomainSpec{Name: "z"})
		}), "6 clock domains for 5 structures"},
		{"unnamed domain", mutate(func(s *Spec) { s.Domains[1].Name = "" }), "domain 1 has no name"},
		{"dup domain", mutate(func(s *Spec) { s.Domains[2].Name = "front"; s.Assign["mem"] = "front" }), "duplicate"},
		{"reserved all", mutate(func(s *Spec) { s.Domains[2].Name = "all"; s.Assign["mem"] = "all" }), "reserved"},
		{"unassigned structure", mutate(func(s *Spec) { delete(s.Assign, "mem") }), "not assigned"},
		{"unknown structure", mutate(func(s *Spec) { s.Assign["alu9"] = "front" }), "unknown pipeline structure"},
		{"undeclared domain", mutate(func(s *Spec) { s.Assign["mem"] = "warp" }), "undeclared domain"},
		{"orphan domain", mutate(func(s *Spec) { s.Assign["mem"] = "front" }), "owns no pipeline structure"},
		{"dynamic non-exec", mutate(func(s *Spec) { s.Domains[0].DVFS = PolicyDynamic }), "only execution structures"},
		{"bad policy", mutate(func(s *Spec) { s.Domains[1].DVFS = "warp" }), "dvfs policy"},
		{"bad freq", mutate(func(s *Spec) { s.Domains[0].FreqGHz = 1000 }), "frequency"},
		{"negative freq", mutate(func(s *Spec) { s.Domains[0].FreqGHz = -1 }), "frequency -1 GHz"},
		{"bad link class", mutate(func(s *Spec) { s.Links = map[string]LinkSpec{"hyperlane": {Depth: 4}} }), "unknown link class"},
		{"deep link", mutate(func(s *Spec) { s.Links = map[string]LinkSpec{"wakeup": {Depth: 1 << 20}} }), "depth"},
		{"many edges", mutate(func(s *Spec) { s.Links = map[string]LinkSpec{"fetch": {SyncEdges: 1000}} }), "sync edges"},
		{"negative depth", mutate(func(s *Spec) { s.Links = map[string]LinkSpec{"wakeup": {Depth: -1}} }), "depth -1"},
		{"negative edges", mutate(func(s *Spec) { s.Links = map[string]LinkSpec{"fetch": {SyncEdges: -1}} }), "sync edges -1"},
		{"grid multi-domain", mutate(func(s *Spec) { s.GlobalClockGrid = true }), "global clock grid"},
		{"volt above nominal", mutate(func(s *Spec) {
			s.Domains[1].Voltages = []VoltPoint{{Slowdown: 1, Voltage: 2.5}}
		}), "voltage"},
		{"volt at zero", mutate(func(s *Spec) {
			s.Domains[1].Voltages = []VoltPoint{{Slowdown: 1, Voltage: 0}}
		}), "voltage 0 outside"},
		{"volt speedup", mutate(func(s *Spec) {
			s.Domains[1].Voltages = []VoltPoint{{Slowdown: 0.5, Voltage: 1.2}}
		}), "finite factor >= 1"},
		{"volt not increasing", mutate(func(s *Spec) {
			s.Domains[1].Voltages = []VoltPoint{{Slowdown: 2, Voltage: 1.2}, {Slowdown: 1.5, Voltage: 1.4}}
		}), "strictly increasing"},
	}
	for _, c := range cases {
		err := c.spec.Validate()
		if err == nil {
			t.Errorf("%s: no error", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

func TestCanonicalIdempotentAndDigestStable(t *testing.T) {
	s := triDomain()
	s.Links = map[string]LinkSpec{"wakeup": {}, "fetch": {Depth: 8}} // one no-op entry
	c1 := s.Canonical()
	c2 := c1.Canonical()
	b1, _ := json.Marshal(c1)
	b2, _ := json.Marshal(c2)
	if string(b1) != string(b2) {
		t.Errorf("canonicalization is not idempotent:\n%s\n%s", b1, b2)
	}
	if c1.Domains[0].FreqGHz != 1.0 || c1.Domains[0].DVFS != PolicyStatic {
		t.Errorf("canonical defaults not filled: %+v", c1.Domains[0])
	}
	if _, ok := c1.Links["wakeup"]; ok {
		t.Error("no-op link override survived canonicalization")
	}
	if s.Digest() != c1.Digest() {
		t.Error("digest differs between a spec and its canonical form")
	}
	// Round-trip through JSON preserves the digest: the upload-twice case.
	var back Spec
	if err := json.Unmarshal(b1, &back); err != nil {
		t.Fatal(err)
	}
	if back.Digest() != s.Digest() {
		t.Error("digest unstable across JSON round-trip")
	}
	// Different content, different digest.
	mod := triDomain()
	mod.Domains[0].FreqGHz = 0.5
	if mod.Digest() == s.Digest() {
		t.Error("distinct machines share a digest")
	}
}

func TestParseRejectsUnknownFields(t *testing.T) {
	if _, err := Parse([]byte(`{"name":"x","domains":[{"name":"core","turbo":9}]}`)); err == nil {
		t.Error("unknown field accepted")
	}
	data, _ := json.Marshal(triDomain())
	if _, err := Parse(data); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
	if _, err := Parse(append(data, " trailing"...)); err == nil {
		t.Error("spec followed by trailing data accepted")
	}
}

func TestDomainNamesFresh(t *testing.T) {
	s := triDomain()
	names := s.DomainNames()
	names[0] = "clobbered"
	if s.DomainNames()[0] != "front" {
		t.Error("DomainNames does not return a fresh copy")
	}
	if Structures()[0] != "fetch" {
		t.Errorf("Structures = %v", Structures())
	}
}
