package pipeline

import (
	"bytes"
	"runtime"
	"testing"

	"galsim/internal/snapshot"
	"galsim/internal/trace"
	"galsim/internal/workload"
)

// stateCase is one machine and source a fuzzed state is restored into.
type stateCase struct {
	name      string
	cfg       Config
	src       func() workload.InstrSource
	footprint int // the static program's bytes, summed over generators
}

// stateCases builds the fuzz target's machines and a real capture of
// each: GALS and base, dynamic DVFS, a phased inline profile, and a trace
// replay captured in the middle of a wrong-path excursion.
func stateCases(tb testing.TB) ([]stateCase, [][]byte) {
	tb.Helper()
	gcc, err := workload.ByName("gcc")
	if err != nil {
		tb.Fatal(err)
	}
	swim, err := workload.ByName("swim")
	if err != nil {
		tb.Fatal(err)
	}
	gen := func(p workload.Profile, seed int64) func() workload.InstrSource {
		return func() workload.InstrSource { return workload.NewGenerator(p, seed) }
	}
	gals, base, dyn := DefaultConfig(GALSTopology()), DefaultConfig(BaseTopology()), DefaultConfig(GALSTopology())
	dyn.DynamicDVFS = true
	cases := []stateCase{
		{"gals", gals, gen(gcc, gals.WorkloadSeed), gcc.CodeFootprint},
		{"base", base, gen(swim, base.WorkloadSeed), swim.CodeFootprint},
		{"dvfs", dyn, gen(gcc, dyn.WorkloadSeed), gcc.CodeFootprint},
		{"phased", gals, func() workload.InstrSource {
			return workload.NewPhasedGenerator("phased", []workload.Profile{gcc, swim}, []uint64{1_500, 700}, gals.WorkloadSeed)
		}, gcc.CodeFootprint + swim.CodeFootprint},
	}

	var rec bytes.Buffer
	w, err := trace.NewWriter(&rec, trace.Meta{Name: "gcc", Instructions: 6_000})
	if err != nil {
		tb.Fatal(err)
	}
	recorder := trace.NewRecorder(workload.NewGenerator(gcc, gals.WorkloadSeed), w)
	NewCoreWithSource(gals, "gcc", recorder).Run(6_000)
	if err := recorder.Close(); err != nil {
		tb.Fatal(err)
	}
	tr, err := trace.Parse(rec.Bytes())
	if err != nil {
		tb.Fatal(err)
	}
	cases = append(cases, stateCase{"replay", gals, func() workload.InstrSource { return trace.NewReplaySource(tr) }, 0})

	var states [][]byte
	for i, c := range cases {
		core := NewCoreWithSource(c.cfg, c.name, c.src())
		var targets []uint64
		for n := uint64(2_000); n < 5_000; n += 50 {
			targets = append(targets, n)
		}
		var state []byte
		err := core.SnapshotAt(targets, func(_ uint64, appendState func(*snapshot.Encoder)) {
			if state == nil && (c.name != "replay" || core.gen.InWrongPath()) {
				state = stateOf(appendState)
			}
		})
		if err != nil {
			tb.Fatal(err)
		}
		core.Run(5_000)
		if state == nil {
			tb.Fatalf("case %d (%s): no capture taken", i, c.name)
		}
		states = append(states, state)
	}
	return cases, states
}

// FuzzSnapshotState restores arbitrary state sections into each machine of
// stateCases. Restore must never panic, no length field may allocate
// beyond the bytes that remain, and a state that restores must capture
// again to exactly its own bytes: the encoding is canonical.
func FuzzSnapshotState(f *testing.F) {
	cases, states := stateCases(f)
	for i, st := range states {
		f.Add(uint8(i), st)
	}
	f.Fuzz(func(t *testing.T, which uint8, state []byte) {
		c := cases[int(which)%len(cases)]
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		core, err := RestoreCore(c.cfg, c.name, c.src(), state)
		runtime.ReadMemStats(&after)
		// A machine's tables come from the pools earlier restores filled;
		// what a state may add is its program pages (8 bytes per code
		// byte at most) and records and lists in proportion to its size.
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(8*c.footprint+256*len(state)+4<<20); got > limit {
			t.Fatalf("%s: restoring %d bytes allocated %d, over %d", c.name, len(state), got, limit)
		}
		if err != nil {
			return
		}
		defer core.Release()
		if got := recapture(core); !bytes.Equal(got, state) {
			t.Fatalf("%s: a restored state of %d bytes captures again as %d other bytes", c.name, len(state), len(got))
		}
	})
}
