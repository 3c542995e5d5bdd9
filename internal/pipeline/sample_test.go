package pipeline

import (
	"encoding/json"
	"strings"
	"testing"

	"galsim/internal/workload"
)

// TestSamplerSeries checks the interval sampler's core contract on a GALS
// run: samples land exactly on interval boundaries, cumulative fields are
// monotone, occupancy fractions are sane, and the dynamic-DVFS run's
// slowdown trajectory is visible in the series.
func TestSamplerSeries(t *testing.T) {
	prof, err := workload.ByName("perl")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(GALSTopology())
	cfg.SampleInterval = 500
	st := NewCore(cfg, prof).Run(20_000)

	if len(st.Samples) == 0 {
		t.Fatal("no samples recorded")
	}
	var prev Sample
	for i, s := range st.Samples {
		if s.Cycle%500 != 0 {
			t.Errorf("sample %d at cycle %d, not an interval boundary", i, s.Cycle)
		}
		if i > 0 {
			if s.Cycle != prev.Cycle+500 {
				t.Errorf("sample %d cycle %d does not follow %d", i, s.Cycle, prev.Cycle)
			}
			if s.Committed < prev.Committed || s.TimeNs <= prev.TimeNs {
				t.Errorf("sample %d not monotone: %+v after %+v", i, s, prev)
			}
		}
		for _, d := range s.Domains {
			if d.IQOcc < 0 || d.IQOcc > 1 {
				t.Errorf("sample %d domain %s occupancy %v outside [0,1]", i, d.Name, d.IQOcc)
			}
			if d.Slowdown < 1 {
				t.Errorf("sample %d domain %s slowdown %v below 1", i, d.Name, d.Slowdown)
			}
		}
		prev = s
	}
	if last := st.Samples[len(st.Samples)-1]; last.Committed == 0 {
		t.Error("final sample committed == 0")
	}

	// The decode-domain series carries the machine IPC signal.
	var sawIPC bool
	for _, s := range st.Samples {
		if s.IPC > 0 {
			sawIPC = true
		}
	}
	if !sawIPC {
		t.Error("no sample recorded a positive interval IPC")
	}

	// Dynamic DVFS: the controller's retunes must show up as non-unit
	// slowdowns somewhere in the series (perl converges on a slow FP
	// domain, as the paper's hand tuning did).
	cfg = DefaultConfig(GALSTopology())
	cfg.DynamicDVFS = true
	cfg.SampleInterval = 2000
	dyn := NewCore(cfg, prof).Run(60_000)
	var retuned bool
	for _, s := range dyn.Samples {
		for _, d := range s.Domains {
			if d.Slowdown > 1 {
				retuned = true
			}
		}
	}
	if dyn.Retunes > 0 && !retuned {
		t.Errorf("controller retuned %d times but no sample saw a slowdown > 1", dyn.Retunes)
	}
}

// TestSamplerOffIdentical pins the opt-in contract: a run with sampling
// disabled produces Stats identical (including serialized form) to a run of
// a config that never heard of sampling — Samples must be absent from the
// JSON entirely, protecting golden snapshots and cache payloads.
func TestSamplerOffIdentical(t *testing.T) {
	prof, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	st := NewCore(DefaultConfig(GALSTopology()), prof).Run(5_000)
	if st.Samples != nil {
		t.Fatalf("sampling disabled but %d samples recorded", len(st.Samples))
	}
	b, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(b), "Samples") {
		t.Error("Samples field serialized despite being empty")
	}
}
