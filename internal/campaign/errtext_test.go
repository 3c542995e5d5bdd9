package campaign

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"galsim/internal/machine"
)

// The tests in this file pin the exact text of the errors users see when a
// sweep or a batch is refused, and the progress a refused batch reports:
// each is a change users see, whichever layer checks the unit.

// badSlow names a clock domain no machine has.
func badSlow() map[string]float64 { return map[string]float64{"bogus": 2} }

func TestSweepUnitsErrorText(t *testing.T) {
	tri := triDomainSpec()
	hot := triDomainSpec()
	hot.Domains[0].Voltages = []machine.VoltPoint{{Slowdown: 1, Voltage: 2.5}}
	cases := []struct {
		name  string
		sweep Sweep
		want  string
	}{
		{
			name:  "unknown benchmark",
			sweep: Sweep{Benchmarks: []string{"gcc", "nope"}, Machines: []string{"gals"}, Instructions: 2_000},
			want:  "campaign: sweep unit 1: workload: unknown benchmark \"nope\" (known: [adpcm epic g721 mpeg2 applu fpppp swim compress gcc go ijpeg li m88ksim perl vortex])",
		},
		{
			name:  "unknown machine",
			sweep: Sweep{Benchmarks: []string{"gcc"}, Machines: []string{"gals", "warp"}, Instructions: 2_000},
			want:  "campaign: sweep unit 1: campaign: unknown machine \"warp\" (built-in machines: base, gals; or supply a full machine spec)",
		},
		{
			name:  "invalid inline machine",
			sweep: Sweep{Benchmarks: []string{"gcc"}, MachineSpecs: []machine.Spec{tri, hot}, Instructions: 2_000},
			want:  "campaign: sweep unit 1: machine: tri: domain \"front\" voltage point 0: voltage 2.5 outside (0, 1.65] (the nominal supply)",
		},
		{
			name:  "bad link style",
			sweep: Sweep{Benchmarks: []string{"gcc"}, Machines: []string{"gals"}, LinkStyle: "bogus", Instructions: 2_000},
			want:  "campaign: sweep unit 0: campaign: unknown link style \"bogus\" (want fifo or stretch)",
		},
		{
			name: "grid key of no swept machine",
			sweep: Sweep{Benchmarks: []string{"gcc"}, Machines: []string{"base"}, MachineSpecs: []machine.Spec{tri},
				SlowdownGrid: []map[string]float64{nil, {"fp": 2}}, Instructions: 2_000},
			want: "campaign: sweep slowdown grid names clock domain \"fp\", which belongs to none of the swept machines (their domains: [core front exec memsys], or \"all\" for a uniform slowdown)",
		},
		{
			name:  "too many units",
			sweep: Sweep{Benchmarks: []string{"gcc"}, WorkloadSeeds: make([]int64, 1<<11), PhaseSeeds: make([]int64, 1<<10)},
			want:  "campaign: sweep expands to more than 1048576 units; split it",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := tc.sweep.Units()
			if err == nil || err.Error() != tc.want {
				t.Errorf("Units() error:\n got %v\nwant %s", err, tc.want)
			}
		})
	}
}

// TestBatchErrorText runs a batch whose second unit is refused, on one
// worker: the first unit completes, the second fails, the third never
// runs. Every batch entry point reports the same error and the same
// progress.
func TestBatchErrorText(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "gcc.trace")
	f, err := os.Create(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ExecuteOpts(RunSpec{Benchmark: "gcc", Machine: "gals", Instructions: 2_000}, ExecOpts{TraceOut: f}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	tri := triDomainSpec()
	ok := RunSpec{Benchmark: "li", Machine: "gals", Instructions: 2_000}
	cases := []struct {
		name string
		bad  RunSpec
		want string
	}{
		{
			name: "built-in machine",
			bad:  RunSpec{Benchmark: "gcc", Machine: "base", Instructions: 2_000, Slowdowns: badSlow()},
			want: "campaign: unit 1 (base/gcc): campaign: unknown clock domain \"bogus\" in slowdowns: machine \"base\" has a single clock (domain \"core\"); use \"all\" for a uniform slowdown",
		},
		{
			name: "inline machine",
			bad:  RunSpec{Benchmark: "gcc", MachineSpec: &tri, Instructions: 2_000, Slowdowns: badSlow()},
			want: "campaign: unit 1 (tri/gcc): campaign: unknown clock domain \"bogus\" for machine \"tri\" in slowdowns (its domains: [front exec memsys], or \"all\" for a uniform slowdown)",
		},
		{
			name: "replay",
			bad:  RunSpec{Trace: &TraceRef{Path: tracePath}, Machine: "gals", Instructions: 3_000},
			want: "campaign: unit 1 (gals/replay:gcc): campaign: trace DIR/gcc.trace records 2000 instructions but the replay requests 3000 under the recorded configuration; lower the budget, or change the machine configuration to make the divergence explicit (a divergent replay wraps the stream)",
		},
		{
			name: "replay of a missing trace",
			bad:  RunSpec{Trace: &TraceRef{Path: filepath.Join(dir, "missing.trace")}, Machine: "gals"},
			want: "campaign: unit 1 (gals/replay:DIR/missing.trace): campaign: trace: open DIR/missing.trace: no such file or directory",
		},
	}
	wantProgress := []Progress{{Total: 3, Completed: 1}, {Total: 3, Completed: 1, Failed: 1}}
	for _, tc := range cases {
		specs := []RunSpec{ok, tc.bad, ok}
		run := map[string]func(e *Engine, fn ProgressFunc) error{
			"RunAllProgress": func(e *Engine, fn ProgressFunc) error {
				_, err := e.RunAllProgress(context.Background(), specs, fn)
				return err
			},
			"RunAllWarm": func(e *Engine, fn ProgressFunc) error {
				_, err := e.RunAllWarm(context.Background(), specs, 1_000, fn)
				return err
			},
		}
		for entry, runBatch := range run {
			t.Run(tc.name+"/"+entry, func(t *testing.T) {
				var got []Progress
				err := runBatch(NewEngine(1), func(p Progress) { got = append(got, p) })
				want := strings.ReplaceAll(tc.want, "DIR", dir)
				if err == nil || err.Error() != want {
					t.Errorf("error:\n got %v\nwant %s", err, want)
				}
				if !reflect.DeepEqual(got, wantProgress) {
					t.Errorf("progress = %+v, want %+v", got, wantProgress)
				}
			})
		}
	}
}
