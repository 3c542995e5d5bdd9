package campaign_test

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"galsim"
	"galsim/internal/campaign"
	"galsim/internal/machine"
	"galsim/internal/service"
)

// TestOneResolvePerUnit counts the resolves each local path makes per
// file-free unit: whichever entry point checks a unit first produces the
// unit every later step uses, so each unit is resolved exactly once.
func TestOneResolvePerUnit(t *testing.T) {
	tri := machine.Spec{
		Name:    "tri",
		Domains: []machine.DomainSpec{{Name: "front"}, {Name: "exec"}, {Name: "memsys"}},
		Assign:  map[string]string{"fetch": "front", "decode": "front", "int": "exec", "fp": "exec", "mem": "memsys"},
	}
	builtin := campaign.Sweep{
		Benchmarks:       []string{"gcc", "li"},
		Machines:         []string{"base", "gals"},
		SlowdownGrid:     []map[string]float64{nil, {"all": 1.5}},
		InstructionsGrid: []uint64{2_000, 3_000, 4_000},
	}
	inline := campaign.Sweep{
		Benchmarks:       []string{"gcc"},
		MachineSpecs:     []machine.Spec{tri, machine.GALS()},
		SlowdownGrid:     []map[string]float64{nil, {"exec": 1.5}},
		InstructionsGrid: []uint64{2_000, 3_000, 4_000},
	}
	warm := func(s campaign.Sweep) campaign.Sweep { s.Warmup = 1_000; return s }
	sweep := func(s campaign.Sweep) func(t *testing.T) int {
		return func(t *testing.T) int {
			res, err := campaign.RunSweepOn(context.Background(), campaign.NewEngine(0), s)
			if err != nil {
				t.Fatal(err)
			}
			return len(res)
		}
	}
	opts := []galsim.Options{
		{Benchmark: "gcc", Instructions: 2_000},
		{Benchmark: "li", Machine: galsim.GALS, Instructions: 2_000, Slowdowns: map[string]float64{"fp": 2}},
		{Benchmark: "gcc", MachineSpec: &tri, Instructions: 2_000},
	}
	post := func(path, body string, units int) func(t *testing.T) int {
		return func(t *testing.T) int {
			ts := httptest.NewServer(service.New(campaign.NewEngine(0)))
			defer ts.Close()
			resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			b, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("POST %s: %d %s", path, resp.StatusCode, b)
			}
			return units
		}
	}
	const sweepBody = `{"benchmarks":["gcc","li"],"machines":["base","gals"],"slowdown_grid":[{},{"all":1.5}],"instructions_grid":[2000,3000,4000]`
	cases := []struct {
		name string
		run  func(t *testing.T) int // runs the path and returns its unit count
	}{
		{"RunSweepOn/built-in", sweep(builtin)},
		{"RunSweepOn/built-in/warmup", sweep(warm(builtin))},
		{"RunSweepOn/inline", sweep(inline)},
		{"RunSweepOn/inline/warmup", sweep(warm(inline))},
		{"RunManyOn", func(t *testing.T) int {
			if _, err := galsim.RunManyOn(context.Background(), campaign.NewEngine(0), opts); err != nil {
				t.Fatal(err)
			}
			return len(opts)
		}},
		{"Run", func(t *testing.T) int {
			if _, err := galsim.Run(opts[1]); err != nil {
				t.Fatal(err)
			}
			return 1
		}},
		{"galsimd/run", post("/run", `{"benchmark":"gcc","machine":"gals","instructions":2000,"slowdowns":{"fp":2}}`, 1)},
		{"galsimd/sweep", post("/sweep", sweepBody+`}`, 24)},
		{"galsimd/sweep/warmup", post("/sweep", sweepBody+`,"warmup":1000}`, 24)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := campaign.Resolves()
			units := tc.run(t)
			if got := campaign.Resolves() - before; got != uint64(units) {
				t.Errorf("%d resolves for %d units (%.2f per unit), want 1.00", got, units, float64(got)/float64(units))
			}
		})
	}
}
