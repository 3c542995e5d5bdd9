package machine

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzMachineSpec drives untrusted bytes through the full machine-spec
// surface: parse -> validate -> canonicalize -> digest -> re-parse. The
// contracts under test: nothing panics; canonicalization is idempotent and
// digest-preserving; a canonical spec survives a JSON round-trip with its
// validity and digest intact (the property fleet-wide cache dedup and
// stable upload keys rest on); and the anti-DoS caps hold, so a hostile
// spec cannot smuggle unbounded state past Validate.
func FuzzMachineSpec(f *testing.F) {
	for _, sp := range Builtins() {
		seed, _ := json.Marshal(sp)
		f.Add(seed)
	}
	tri, _ := json.Marshal(Spec{
		Name: "tri",
		Domains: []DomainSpec{
			{Name: "front", FreqGHz: 2},
			{Name: "exec", DVFS: PolicyDynamic, Voltages: []VoltPoint{{Slowdown: 1, Voltage: 1.65}, {Slowdown: 3, Voltage: 1.1}}},
			{Name: "memsys"},
		},
		Assign: map[string]string{"fetch": "front", "decode": "front", "int": "exec", "fp": "exec", "mem": "memsys"},
		Links:  map[string]LinkSpec{"wakeup": {Depth: 8, SyncEdges: 3}},
	})
	f.Add(tri)
	f.Add([]byte(`{"name":"x","domains":[{"name":"core"}],"assign":{}}`))
	f.Add([]byte(`{}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Parse(data)
		if err != nil {
			return // malformed or invalid input must only ever yield an error
		}
		// Parse vouched for validity; everything downstream must agree.
		if err := s.Validate(); err != nil {
			t.Fatalf("Parse accepted a spec Validate rejects: %v", err)
		}
		c := s.Canonical()
		if err := c.Validate(); err != nil {
			t.Fatalf("canonicalization broke validity: %v", err)
		}
		b1, err := json.Marshal(c)
		if err != nil {
			t.Fatalf("canonical spec does not marshal: %v", err)
		}
		b2, err := json.Marshal(c.Canonical())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b1, b2) {
			t.Fatalf("canonicalization not idempotent:\n%s\n%s", b1, b2)
		}
		if s.Digest() != c.Digest() {
			t.Fatal("digest differs between a spec and its canonical form")
		}
		back, err := Parse(b1)
		if err != nil {
			t.Fatalf("canonical form does not re-parse: %v", err)
		}
		if back.Digest() != s.Digest() {
			t.Fatal("digest unstable across a canonical JSON round-trip")
		}
		if topo := s.Topology(); len(topo.Domains) != len(s.Domains) {
			t.Fatalf("valid spec with %d domains has a %d-domain topology", len(s.Domains), len(topo.Domains))
		}
	})
}
