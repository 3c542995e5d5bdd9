package main

import (
	"maps"
	"math"
	"testing"
	"time"

	"galsim/internal/campaign"
	"galsim/internal/workload"
)

func TestPercentile(t *testing.T) {
	xs := []float64{50, 15, 40, 20, 35}
	for _, c := range []struct{ p, want float64 }{{0, 15}, {25, 20}, {50, 35}, {90, 46}, {100, 50}} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("percentile(%v, %v) = %v, want %v", xs, c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of no data = %v, want 0", got)
	}
}

// TestQuartiles pins quartiles to Python's statistics.quantiles(xs, n=4),
// which gives these results; a single value is its own quartiles.
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{7}, [3]float64{7, 7, 7}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

const pprofTop = `File: perfbench
Type: cpu
Duration: 5.01s, Total samples = 4.90s (97.80%)
Showing nodes accounting for 4.90s, 100% of 4.90s total
      flat  flat%   sum%        cum   cum%
     1.20s 24.49% 24.49%      1.50s 30.61%  galsim/internal/pipeline.(*Core).stageIssue
     900ms 18.37% 42.86%      900ms 18.37%  galsim/internal/fifo.(*Link[go.shape.struct { galsim/internal/pipeline.x uint64 }]).Push
     800ms 16.33% 59.18%      2.10s 42.86%  galsim/internal/pipeline.(*Core).domainTick.func1
     700ms 14.29% 73.47%      700ms 14.29%  runtime.scanobject
     600ms 12.24% 85.71%      600ms 12.24%  encoding/json.(*decodeState).object
     500ms 10.20% 95.92%      500ms 10.20%  runtime.mallocgc
     200ms  4.08%   100%      200ms  4.08%  syscall.Syscall6
         0     0%   100%      4.90s   100%  main.main
`

func TestParseTop(t *testing.T) {
	self, total, err := parseTop([]byte(pprofTop))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]time.Duration{
		"pipeline.issue": 1200 * time.Millisecond,
		"fifo":           900 * time.Millisecond,
		"pipeline.other": 800 * time.Millisecond,
		"runtime_gc":     700 * time.Millisecond,
		"encoding_json":  600 * time.Millisecond,
		"other":          500 * time.Millisecond,
		"syscall":        200 * time.Millisecond,
	}
	if total != 4900*time.Millisecond || !maps.Equal(self, want) {
		t.Errorf("parseTop = %v, total %v; want %v, total 4.9s", self, total, want)
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"galsim/internal/pipeline.(*Core).stageFetch":          "pipeline.fetch",
		"galsim/internal/pipeline.(*Core).stageDrainDispatch":  "pipeline.rename_dispatch",
		"galsim/internal/pipeline.(*Core).stageComplete.func2": "pipeline.complete",
		"galsim/internal/pipeline.(*Core).stageCommit":         "pipeline.commit",
		"galsim/internal/pipeline.(*Core).Run":                 "pipeline.other",
		"galsim/internal/event.(*Engine).Run":                  "event",
		"galsim/internal/dvfs.(*Controller).Step":              "clock",
		"galsim/internal/trace.(*ReplaySource).Next":           "workload",
		"galsim/internal/telemetry.(*Registry).Counter":        "other",
		"net/http.(*conn).serve":                               "net_http",
		"internal/poll.(*FD).Write":                            "syscall",
		"runtime.futex":                                        "syscall",
		"runtime.gcDrain":                                      "runtime_gc",
		"runtime.(*gcWork).balance":                            "runtime_gc",
		"runtime.mallocgc":                                     "other",
		"main.(*timedSource).Next":                             "other",
		"type:.eq.[2]interface {}":                             "other",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// TestTracedUnitMatchesUntraced checks that the traced execution path
// simulates exactly what campaign.Execute does.
func TestTracedUnitMatchesUntraced(t *testing.T) {
	var ph phases
	for _, spec := range []campaign.RunSpec{
		{Benchmark: "gcc", Machine: "gals", Instructions: 5_000},
		{Benchmark: "swim", Machine: "base", Instructions: 5_000, WorkloadSeed: 7},
	} {
		want, err := campaign.Execute(spec, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ph.execute(spec)
		if err != nil {
			t.Fatal(err)
		}
		if digestOf(got) != digestOf(want) {
			t.Errorf("%s/%s: traced Stats differ from campaign.Execute's", spec.Machine, spec.Benchmark)
		}
	}
	layers := ph.layers()
	for _, name := range []string{"pipeline.run_ns_per_instr", "workload.next_ns_per_instr", "pipeline.build_ms"} {
		if !(layers[name] > 0) {
			t.Errorf("%s = %v, want > 0", name, layers[name])
		}
	}
}

func TestWrapSourceForwardsOptionalInterfaces(t *testing.T) {
	prof, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	gen := workload.NewGenerator(prof, 1)
	for _, c := range []struct {
		name       string
		src        workload.InstrSource
		pool, snap bool
	}{
		{"generator", gen, true, true},
		{"pool only", struct {
			workload.InstrSource
			workload.PoolUser
		}{gen, gen}, true, false},
		{"snapshots only", struct {
			workload.InstrSource
			workload.Snapshotter
		}{gen, gen}, false, true},
		{"neither", struct{ workload.InstrSource }{gen}, false, false},
	} {
		w, _ := wrapSource(c.src)
		_, pool := w.(workload.PoolUser)
		_, snap := w.(workload.Snapshotter)
		if pool != c.pool || snap != c.snap {
			t.Errorf("%s: wrapper offers pool=%v snapshots=%v, want %v %v", c.name, pool, snap, c.pool, c.snap)
		}
	}
}
