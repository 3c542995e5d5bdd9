// Command galsim runs one benchmark on one machine configuration and prints
// its statistics: the interactive front door to the simulator. Every single
// run goes through it: recording a trace (-record), replaying one (-replay),
// fast-forwarding to a snapshot (-warmup with -snapshot-out) and resuming
// from one (-snapshot-in). The trace or snapshot a run writes is read back
// and validated before it reports success. galsim-trace inspects trace files.
//
// Examples:
//
//	galsim -bench gcc -machine gals
//	galsim -bench perl -machine gals -slow fp=3,fetch=1.1 -n 200000
//	galsim -profile phases.json -machine gals -dyn-dvfs
//	galsim -bench gcc -record gcc.trace
//	galsim -replay gcc.trace -machine gals
//	galsim -replay gcc.trace -machine gals -warmup 50000 -snapshot-out warm.snap
//	galsim -replay gcc.trace -machine gals -snapshot-in warm.snap
//	galsim -bench gcc -machine gals -dyn-dvfs -sample 2000 -sample-out gcc.csv
//	galsim -bench gcc -machine gals -dyn-dvfs -timeline gcc-trace.json
//	galsim -bench gcc -machine gals -timeline last.json -timeline-flight 65536 -timeline-stall 10000
//	galsim -list
//	galsim -config
package main

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"

	"galsim"
	"galsim/internal/snapshot"
	"galsim/internal/trace"
)

func main() {
	var (
		bench       = flag.String("bench", "compress", "benchmark name (-list to enumerate)")
		profile     = flag.String("profile", "", "JSON file with a custom (possibly phased) workload profile, instead of -bench")
		replay      = flag.String("replay", "", "trace file to replay as the workload, instead of -bench")
		record      = flag.String("record", "", "record the run's instruction stream to this trace file")
		machine     = flag.String("machine", "base", `machine: "base", "gals", or a MachineSpec JSON file defining a custom clock-domain topology`)
		n           = flag.Uint64("n", 0, "instructions to commit (0 = default: 100000, or the recorded length for -replay)")
		slow        = flag.String("slow", "", `per-domain clock slowdowns, e.g. "fp=3,fetch=1.1" (gals) or "all=1.5" (base)`)
		noDVS       = flag.Bool("no-dvs", false, "disable voltage scaling of slowed domains")
		seed        = flag.Int64("seed", 42, "workload seed")
		phaseSeed   = flag.Int64("phase-seed", 1, "GALS clock phase seed")
		trace       = flag.Uint64("trace", 0, "print the first N committed instructions")
		warmup      = flag.Uint64("warmup", 0, "capture a full-state snapshot after N committed instructions (requires -snapshot-out)")
		snapOut     = flag.String("snapshot-out", "", "write the -warmup snapshot to this file")
		snapIn      = flag.String("snapshot-in", "", "resume the run from this snapshot file (same configuration; results identical to a cold run)")
		memOrder    = flag.String("mem-order", "perfect", "memory disambiguation: perfect, conservative, addr-match")
		linkStyle   = flag.String("links", "fifo", "GALS link style: fifo or stretch")
		dynDVFS     = flag.Bool("dyn-dvfs", false, "enable the online per-domain DVFS controller (gals only)")
		sample      = flag.Uint64("sample", 0, "sample per-domain occupancy/IPC/DVFS state every N decode cycles (0 = off, min 100)")
		sampleOut   = flag.String("sample-out", "", "write the sample series to this file (default stdout after the run summary)")
		sampleFmt   = flag.String("sample-format", "csv", "sample encoding: csv or json")
		timelineOut = flag.String("timeline", "",
			"write a Perfetto-loadable microarchitecture timeline (Chrome trace-event JSON) to this file")
		tlFlight = flag.Int("timeline-flight", 0,
			"flight-recorder mode: keep only the last N timeline events (0 = record from the start)")
		tlStall = flag.Uint64("timeline-stall", 0,
			"mark the timeline when the pipeline makes no progress for N decode cycles (0 = off)")
		tlDetail = flag.Bool("timeline-detail", false,
			"record per-item FIFO push/pop instants in the timeline (larger files, finer causality)")
		list    = flag.Bool("list", false, "list benchmarks and exit")
		config  = flag.Bool("config", false, "print the machine configuration (paper Tables 2-3) and exit")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf = flag.String("memprofile", "", "write a heap profile (taken after the run) to this file")
	)
	flag.Parse()

	if *list {
		for _, name := range galsim.Benchmarks() {
			info, _ := galsim.Describe(name)
			fmt.Println(info.Description)
		}
		return
	}
	if *config {
		printConfig()
		return
	}

	// -bench has a non-empty default that yields to -profile/-replay; an
	// *explicitly* passed -bench alongside either is a conflict the user
	// should hear about, exactly as the library API would report it.
	// -machine likewise defaults to "base", but the default must reach the
	// library as "no machine chosen": replaying a trace recorded on another
	// topology errors loudly unless the machine is an explicit choice.
	benchSet, machineSet := false, false
	flag.Visit(func(f *flag.Flag) {
		benchSet = benchSet || f.Name == "bench"
		machineSet = machineSet || f.Name == "machine"
	})
	if !machineSet {
		*machine = ""
	}
	if benchSet && (*profile != "" || *replay != "") {
		fail(2, errors.New("-bench, -profile and -replay are mutually exclusive; pass exactly one"))
	}

	slowdowns, err := galsim.ParseSlowdowns(*slow)
	if err != nil {
		fail(2, err)
	}

	machineSpec, machineName, err := resolveMachineFlag(*machine)
	if err != nil {
		fail(2, err)
	}

	opts := galsim.Options{
		Benchmark:             *bench,
		Trace:                 *replay,
		RecordTrace:           *record,
		Machine:               galsim.Machine(machineName),
		MachineSpec:           machineSpec,
		Instructions:          *n,
		Slowdowns:             slowdowns,
		DisableVoltageScaling: *noDVS,
		WorkloadSeed:          *seed,
		PhaseSeed:             *phaseSeed,
		MemoryOrdering:        *memOrder,
		LinkStyle:             *linkStyle,
		DynamicDVFS:           *dynDVFS,
		SampleInterval:        *sample,
		Warmup:                *warmup,
		SnapshotOut:           *snapOut,
		SnapshotIn:            *snapIn,
	}
	if *sampleFmt != "csv" && *sampleFmt != "json" {
		fail(2, fmt.Errorf("-sample-format %q: want csv or json", *sampleFmt))
	}
	if (*tlFlight > 0 || *tlStall > 0 || *tlDetail) && *timelineOut == "" {
		fail(2, errors.New("-timeline-flight/-timeline-stall/-timeline-detail require -timeline FILE"))
	}
	if *timelineOut != "" {
		opts.Timeline = &galsim.TimelineOptions{
			MaxEvents:      *tlFlight,
			FlightRecorder: *tlFlight > 0,
			StallThreshold: *tlStall,
			Detail:         *tlDetail,
		}
	}
	if *profile != "" || *replay != "" {
		opts.Benchmark = "" // -bench's default yields to an explicit source
	}
	if *profile != "" {
		data, err := os.ReadFile(*profile)
		if err != nil {
			fail(2, err)
		}
		spec, err := galsim.ParseWorkloadProfile(data)
		if err != nil {
			fail(2, err)
		}
		opts.Profile = &spec
	}
	if *trace > 0 {
		remaining := *trace
		fmt.Printf("%-8s %-10s %-8s %10s %10s %8s\n", "seq", "pc", "class", "fetch(ns)", "commit(ns)", "slip")
		opts.OnCommit = func(e galsim.CommitEvent) {
			if remaining == 0 {
				return
			}
			remaining--
			fmt.Printf("%-8d %#-10x %-8s %10.1f %10.1f %8.1f\n",
				e.Seq, e.PC, e.Class, e.FetchTimeNs, e.CommitTimeNs, e.SlipNs)
		}
	}
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fail(2, err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fail(2, err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	res, err := galsim.Run(opts)
	if err != nil {
		// A flight recorder's whole point is the post-mortem: dump whatever
		// the ring holds so the failure window can be inspected in Perfetto.
		if res.Timeline != nil && res.Timeline.Len() > 0 {
			if werr := writeTimeline(res.Timeline, *timelineOut); werr == nil {
				fmt.Fprintf(os.Stderr, "galsim: wrote post-mortem timeline (%d events) to %s\n",
					res.Timeline.Len(), *timelineOut)
			}
		}
		fail(1, err)
	}
	printResult(res)
	if *record != "" {
		if err := checkTrace(*record); err != nil {
			fail(1, err)
		}
	}
	if *snapOut != "" {
		if err := checkSnapshot(*snapOut); err != nil {
			fail(1, err)
		}
	}
	if res.Timeline != nil {
		if err := writeTimeline(res.Timeline, *timelineOut); err != nil {
			fail(1, err)
		}
		fmt.Printf("  timeline    %d events -> %s (open at https://ui.perfetto.dev)\n",
			res.Timeline.Len(), *timelineOut)
	}
	if *sample > 0 {
		if err := writeSamples(res.Samples, *sampleOut, *sampleFmt); err != nil {
			fail(1, err)
		}
	}
	if *memProf != "" {
		f, err := os.Create(*memProf)
		if err != nil {
			fail(2, err)
		}
		runtime.GC() // a clean picture of what the run left behind
		if err := pprof.WriteHeapProfile(f); err != nil {
			fail(2, err)
		}
		f.Close()
	}
}

// fail reports err and exits with code. Package galsim prefixes its own
// errors with "galsim:", so the prefix is added only where it is missing.
// os.Exit skips defers, so the CPU profile is flushed first and a failing
// run still leaves a readable profile (a no-op when profiling is off).
func fail(code int, err error) {
	pprof.StopCPUProfile()
	fmt.Fprintln(os.Stderr, "galsim:", strings.TrimPrefix(err.Error(), "galsim: "))
	os.Exit(code)
}

// checkTrace reloads the -record trace through the full decoder and
// reports what it holds.
func checkTrace(path string) error {
	t, err := trace.Load(path)
	if err != nil {
		return fmt.Errorf("recorded trace failed to validate: %w", err)
	}
	info, err := os.Stat(path)
	if err != nil {
		return err
	}
	fmt.Printf("  %s: %d bytes, %d instructions (%d wrong-path, %d excursions)\n",
		path, info.Size(), t.Stats.Instrs, t.Stats.WrongPath, t.Stats.Excursions)
	return nil
}

// checkSnapshot re-reads the -snapshot-out file, checks its envelope and
// head (the run that resumes from it decodes the state), reports its size
// and content digest, and prints the command line that resumes from it:
// this run's flags, less the capture and recording ones.
func checkSnapshot(path string) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if _, err := snapshot.Parse(b); err != nil {
		return fmt.Errorf("written snapshot failed to validate: %w", err)
	}
	sum := sha256.Sum256(b)
	resume := []string{"galsim"}
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "warmup", "snapshot-out", "snapshot-in", "record":
		default:
			resume = append(resume, "-"+f.Name+"="+f.Value.String())
		}
	})
	fmt.Printf("  %s: %d bytes, digest %x\n", path, len(b), sum)
	fmt.Printf("  resume with: %s -snapshot-in %s\n", strings.Join(resume, " "), path)
	return nil
}

// writeTimeline saves the recorder's events as Chrome trace-event JSON.
func writeTimeline(tl *galsim.Timeline, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tl.WriteTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeSamples emits the interval series: CSV via the library's shared
// column layout, or a JSON array. An empty path writes to stdout, after the
// run summary.
func writeSamples(samples []galsim.Sample, path, format string) error {
	var w io.Writer = os.Stdout
	if path != "" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	if format == "json" {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(samples)
	}
	return galsim.WriteSamplesCSV(w, samples)
}

// resolveMachineFlag interprets -machine: a built-in machine name stays a
// name; anything else is read as a MachineSpec JSON file.
func resolveMachineFlag(v string) (*galsim.MachineSpec, string, error) {
	for _, name := range append(galsim.Machines(), "") {
		if v == name {
			return nil, v, nil
		}
	}
	data, err := os.ReadFile(v)
	if err != nil {
		return nil, "", fmt.Errorf("-machine %q is neither a built-in machine (%s) nor a readable spec file: %v",
			v, strings.Join(galsim.Machines(), ", "), err)
	}
	spec, err := galsim.ParseMachineSpec(data)
	if err != nil {
		return nil, "", fmt.Errorf("-machine %s: %v", v, err)
	}
	return &spec, "", nil
}

func printResult(r galsim.Result) {
	fmt.Printf("%s on %s machine: %d instructions\n", r.Benchmark, r.Machine, r.Committed)
	fmt.Printf("  time        %.3f us   IPC %.2f   %.0f MIPS\n", r.SimSeconds*1e6, r.IPC, r.MIPS)
	fmt.Printf("  slip        %.2f ns   (%.1f%% in FIFOs)\n", r.AvgSlipNs, 100*r.FIFOSlipShare)
	fmt.Printf("  speculation %.1f%% wrong-path fetched, %.1f%% branch mispredict rate\n",
		100*r.MisspeculationFrac, 100*r.BranchMispredictRate)
	fmt.Printf("  energy      %.3f mJ   power %.2f W\n", r.EnergyJoules*1e3, r.PowerWatts)
	fmt.Printf("  caches      L1I %.1f%%  L1D %.1f%%  L2 %.1f%%\n",
		100*r.L1IHitRate, 100*r.L1DHitRate, 100*r.L2HitRate)
	fmt.Printf("  occupancy   intRAT %.1f  fpRAT %.1f  ROB %.1f\n",
		r.IntRATOccupancy, r.FPRATOccupancy, r.ROBOccupancy)
	if r.Retunes > 0 {
		fmt.Printf("  dvfs        %d retunes; final slowdowns int %.2f, fp %.2f, mem %.2f\n",
			r.Retunes, r.FinalSlowdowns["int"], r.FinalSlowdowns["fp"], r.FinalSlowdowns["mem"])
	}
	fmt.Println("  energy breakdown (mJ):")
	type kv struct {
		name string
		pj   float64
	}
	var rows []kv
	for name, pj := range r.EnergyBreakdown {
		rows = append(rows, kv{name, pj})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].pj != rows[j].pj {
			return rows[i].pj > rows[j].pj
		}
		return rows[i].name < rows[j].name // deterministic order for equal-energy rows
	})
	for _, row := range rows {
		if row.pj == 0 {
			continue
		}
		fmt.Printf("    %-14s %.4f\n", row.name, row.pj*1e-9)
	}
}

func printConfig() {
	fmt.Print(`Machine configuration (paper Tables 2 and 3)

Pipeline stages (Table 2)           GALS clock domains
  1  Fetch from I-cache               1
  2  Decode                           2
  3  Register rename, regfile read    2
  4  Dispatch into issue queue        2, 3/4/5
  5  Issue to functional unit         3/4/5
  6  Execute                          3/4/5
  7  Wakeup, writeback                3/4/5
  8  Regfile write, commit            3/4/5, 2

Microarchitecture (Table 3)
  Fetch and decode rate   4 inst/cycle
  Integer issue queue     20 entries, 4 ALUs
  FP issue queue          16 entries, 4 FP units
  Memory issue queue      16 entries, 2 ports
  Rename registers        72 integer + 72 FP (beyond 32+32 architectural)
  L1 data cache           16KB 4-way, 1-cycle latency
  L1 instruction cache    16KB direct-mapped, 1-cycle latency
  L2 unified cache        256KB 4-way, 6-cycle latency
  Nominal clock           1 GHz at 1.65 V (alpha = 1.6, Vt = 0.35 V)
  Mixed-clock FIFOs       16 entries, two-flop flag synchronizers
`)
}
