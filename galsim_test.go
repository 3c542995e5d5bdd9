package galsim

import (
	"context"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestRunDefaults(t *testing.T) {
	r, err := Run(Options{Benchmark: "compress", Instructions: 15_000})
	if err != nil {
		t.Fatal(err)
	}
	if r.Machine != Base {
		t.Errorf("default machine = %q", r.Machine)
	}
	if r.Committed != 15_000 {
		t.Errorf("committed = %d", r.Committed)
	}
	if r.SimSeconds <= 0 || r.IPC <= 0 || r.MIPS <= 0 {
		t.Error("performance metrics not populated")
	}
	if r.EnergyJoules <= 0 || r.PowerWatts <= 0 {
		t.Error("energy metrics not populated")
	}
	if len(r.EnergyBreakdown) < 15 {
		t.Errorf("breakdown has %d blocks", len(r.EnergyBreakdown))
	}
}

func TestRunValidation(t *testing.T) {
	cases := []Options{
		{},                                   // missing benchmark
		{Benchmark: "nope"},                  // unknown benchmark
		{Benchmark: "gcc", Machine: "weird"}, // unknown machine
		{Benchmark: "gcc", Machine: GALS, Slowdowns: map[string]float64{"warp": 2}},
		{Benchmark: "gcc", Machine: GALS, Slowdowns: map[string]float64{"fp": 0.5}},
		{Benchmark: "gcc", Machine: Base, Slowdowns: map[string]float64{"fp": 2}},
	}
	for i, o := range cases {
		if _, err := Run(o); err == nil {
			t.Errorf("case %d: no error for %+v", i, o)
		}
	}
}

func TestGALSSlower(t *testing.T) {
	base, err := Run(Options{Benchmark: "li", Machine: Base, Instructions: 20_000})
	if err != nil {
		t.Fatal(err)
	}
	gals, err := Run(Options{Benchmark: "li", Machine: GALS, Instructions: 20_000})
	if err != nil {
		t.Fatal(err)
	}
	rel := base.RelativePerformance(gals)
	if rel >= 1 || rel < 0.75 {
		t.Errorf("relative performance = %.3f, want (0.75, 1)", rel)
	}
	if gals.EnergyBreakdown["global-clock"] != 0 {
		t.Error("GALS burned global clock energy")
	}
	if base.EnergyBreakdown["global-clock"] <= 0 {
		t.Error("base burned no global clock energy")
	}
}

func TestUniformBaseSlowdown(t *testing.T) {
	fast, _ := Run(Options{Benchmark: "compress", Instructions: 10_000})
	slow, err := Run(Options{Benchmark: "compress", Instructions: 10_000,
		Slowdowns: map[string]float64{"all": 2}})
	if err != nil {
		t.Fatal(err)
	}
	ratio := slow.SimSeconds / fast.SimSeconds
	if ratio < 1.9 || ratio > 2.1 {
		t.Errorf("uniform 2x slowdown changed runtime by %.2fx", ratio)
	}
	if slow.EnergyJoules >= fast.EnergyJoules {
		t.Error("uniform slowdown with voltage scaling did not save energy")
	}
}

func TestVoltageScalingToggle(t *testing.T) {
	o := Options{Benchmark: "perl", Machine: GALS, Instructions: 10_000,
		Slowdowns: map[string]float64{"fp": 3}}
	dvs, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	o.DisableVoltageScaling = true
	freqOnly, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if dvs.EnergyJoules >= freqOnly.EnergyJoules {
		t.Error("voltage scaling did not reduce energy")
	}
	if dvs.SimSeconds != freqOnly.SimSeconds {
		t.Error("voltage scaling changed timing")
	}
}

func TestBenchmarksAndDescribe(t *testing.T) {
	names := Benchmarks()
	if len(names) < 12 {
		t.Fatalf("only %d benchmarks", len(names))
	}
	for _, n := range names {
		info, err := Describe(n)
		if err != nil {
			t.Fatal(err)
		}
		if info.Name != n || info.Suite == "" || info.Description == "" {
			t.Errorf("incomplete info for %s: %+v", n, info)
		}
	}
	if _, err := Describe("nope"); err == nil {
		t.Error("Describe accepted unknown benchmark")
	}
	fp, _ := Describe("fpppp")
	if !strings.Contains(fp.Description, "fpppp") || fp.BranchFrac > 0.03 {
		t.Errorf("fpppp info wrong: %+v", fp)
	}
}

func TestMemoryOrderingOptions(t *testing.T) {
	for _, mode := range []string{"perfect", "conservative", "addr-match"} {
		r, err := Run(Options{Benchmark: "vortex", Instructions: 8_000, MemoryOrdering: mode})
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if r.Committed != 8_000 {
			t.Errorf("%s committed %d", mode, r.Committed)
		}
	}
	if _, err := Run(Options{Benchmark: "gcc", MemoryOrdering: "psychic"}); err == nil {
		t.Error("unknown memory ordering accepted")
	}
}

func TestLinkStyleOptions(t *testing.T) {
	fifo, err := Run(Options{Benchmark: "compress", Machine: GALS, Instructions: 10_000, LinkStyle: "fifo"})
	if err != nil {
		t.Fatal(err)
	}
	stretch, err := Run(Options{Benchmark: "compress", Machine: GALS, Instructions: 10_000, LinkStyle: "stretch"})
	if err != nil {
		t.Fatal(err)
	}
	if stretch.SimSeconds <= fifo.SimSeconds {
		t.Errorf("stretch (%.2gs) not slower than fifo (%.2gs)", stretch.SimSeconds, fifo.SimSeconds)
	}
	if _, err := Run(Options{Benchmark: "gcc", LinkStyle: "telepathy"}); err == nil {
		t.Error("unknown link style accepted")
	}
}

func TestOnCommitTracing(t *testing.T) {
	var events []CommitEvent
	r, err := Run(Options{
		Benchmark:    "li",
		Instructions: 2_000,
		OnCommit:     func(e CommitEvent) { events = append(events, e) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if uint64(len(events)) != r.Committed {
		t.Fatalf("hook saw %d events, committed %d", len(events), r.Committed)
	}
	for i := 1; i < len(events); i++ {
		if events[i].Seq <= events[i-1].Seq {
			t.Fatal("commit events out of program order")
		}
	}
	for _, e := range events[:10] {
		if e.CommitTimeNs < e.FetchTimeNs || e.SlipNs <= 0 || e.Class == "" {
			t.Fatalf("malformed event %+v", e)
		}
	}
}

func TestDomainNames(t *testing.T) {
	names := DomainNames()
	if len(names) != 5 || names[0] != "fetch" || names[4] != "mem" {
		t.Errorf("DomainNames = %v", names)
	}
}

func TestOptionsValidate(t *testing.T) {
	good := Options{Benchmark: "gcc", Machine: GALS, Slowdowns: map[string]float64{"fp": 2}}
	if err := good.Validate(); err != nil {
		t.Errorf("valid options rejected: %v", err)
	}
	bad := Options{Benchmark: "gcc", Machine: GALS, Slowdowns: map[string]float64{"warp": 2}}
	err := bad.Validate()
	if err == nil {
		t.Fatal("unknown domain accepted")
	}
	// The message must list the valid domains so callers can self-correct.
	for _, d := range DomainNames() {
		if !strings.Contains(err.Error(), d) {
			t.Errorf("error %q does not list domain %q", err, d)
		}
	}
}

func TestRunManyMatchesRun(t *testing.T) {
	opts := []Options{
		{Benchmark: "gcc", Instructions: 8_000},
		{Benchmark: "gcc", Machine: GALS, Instructions: 8_000},
		{Benchmark: "swim", Machine: GALS, Instructions: 8_000, Slowdowns: map[string]float64{"fp": 2}},
		{Benchmark: "gcc", Instructions: 8_000}, // duplicate of [0]: served from cache
	}
	many, err := RunMany(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(many) != len(opts) {
		t.Fatalf("got %d results for %d option sets", len(many), len(opts))
	}
	for i, o := range opts {
		serial, err := Run(o)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(many[i], serial) {
			t.Errorf("results[%d] diverges from serial Run:\nparallel: %+v\nserial:   %+v", i, many[i], serial)
		}
	}
	if many[0].Machine != Base || many[1].Machine != GALS {
		t.Errorf("machines = %v, %v", many[0].Machine, many[1].Machine)
	}
}

// TestRunManyOnLocalBackend: the explicit-backend entry point with the
// shared local backend is exactly RunMany.
func TestRunManyOnLocalBackend(t *testing.T) {
	opts := []Options{
		{Benchmark: "gcc", Instructions: 6_000},
		{Benchmark: "gcc", Machine: GALS, Instructions: 6_000},
	}
	viaBackend, err := RunManyOn(context.Background(), LocalBackend(), opts)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := RunMany(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(viaBackend, direct) {
		t.Error("RunManyOn(LocalBackend()) diverges from RunMany")
	}
}

func TestRunManyValidation(t *testing.T) {
	_, err := RunMany(context.Background(), []Options{
		{Benchmark: "gcc", Instructions: 5_000},
		{Benchmark: "nope"},
	})
	want := `galsim: options[1]: workload: unknown benchmark "nope" (known: [adpcm epic g721 mpeg2 applu fpppp swim compress gcc go ijpeg li m88ksim perl vortex])`
	if err == nil || err.Error() != want {
		t.Errorf("bad option set:\n got %v\nwant %s", err, want)
	}
	_, err = RunMany(context.Background(), []Options{
		{Benchmark: "gcc", OnCommit: func(CommitEvent) {}},
	})
	want = "galsim: RunMany does not support Options.OnCommit; use Run for traced runs"
	if err == nil || err.Error() != want {
		t.Errorf("OnCommit:\n got %v\nwant %s", err, want)
	}
	if res, err := RunMany(context.Background(), nil); err != nil || res != nil {
		t.Errorf("empty input: %v, %v", res, err)
	}
}

// TestRunManyErrorText pins the text of each refusal RunMany reports
// before it runs anything: the option's index, then the checking layer's
// message.
func TestRunManyErrorText(t *testing.T) {
	dir := t.TempDir()
	hot, err := BuiltinMachine("gals")
	if err != nil {
		t.Fatal(err)
	}
	hot.Name = "hot"
	hot.Domains[0].Voltages = []VoltagePoint{{Slowdown: 1, Voltage: 2.5}}
	cases := []struct {
		opts Options
		want string
	}{
		{Options{Benchmark: "gcc", Machine: GALS, Slowdowns: map[string]float64{"warp": 2}},
			`galsim: options[1]: campaign: unknown clock domain "warp" for machine "gals" in slowdowns (its domains: [fetch decode int fp mem], or "all" for a uniform slowdown)`},
		{Options{Benchmark: "gcc", MachineSpec: &hot},
			`galsim: options[1]: machine: hot: domain "fetch" voltage point 0: voltage 2.5 outside (0, 1.65] (the nominal supply)`},
		{Options{Benchmark: "gcc", Machine: "warp"},
			`galsim: options[1]: campaign: unknown machine "warp" (built-in machines: base, gals; or supply a full machine spec)`},
		{Options{Trace: filepath.Join(dir, "missing.trace")},
			`galsim: options[1]: campaign: trace: open DIR/missing.trace: no such file or directory`},
		{Options{Benchmark: "gcc", SnapshotIn: filepath.Join(dir, "missing.snap")},
			`galsim: options[1]: campaign: snapshot DIR/missing.snap: open DIR/missing.snap: no such file or directory`},
		{Options{Benchmark: "gcc", Warmup: 1_000, SnapshotOut: filepath.Join(dir, "w.snap")},
			`galsim: RunMany does not support Options.Warmup/SnapshotOut; use Run to capture a snapshot (Options.SnapshotIn is fine: it is part of the run's identity)`},
		{Options{Benchmark: "gcc", RecordTrace: filepath.Join(dir, "r.trace")},
			`galsim: RunMany does not support Options.RecordTrace; use Run to record a trace`},
		{Options{Benchmark: "gcc", SampleInterval: 7},
			`galsim: options[1]: campaign: sample_interval 7 is too short (minimum 100 decode cycles, or 0 to disable sampling)`},
	}
	for _, c := range cases {
		_, err := RunMany(context.Background(), []Options{{Benchmark: "li", Instructions: 2_000}, c.opts})
		want := strings.ReplaceAll(c.want, "DIR", dir)
		if err == nil || err.Error() != want {
			t.Errorf("RunMany(%+v):\n got %v\nwant %s", c.opts, err, want)
		}
	}
}

func TestRunManyCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opts := []Options{{Benchmark: "applu", Instructions: 50_000, WorkloadSeed: 12345}}
	if _, err := RunMany(ctx, opts); err == nil {
		t.Error("cancelled context produced results")
	}
}
