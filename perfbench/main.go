// Command perfbench is galsim's benchmark. It drives one of four workloads
// through the Go API and the real HTTP stack, in one process, with inputs
// generated from a seed, checks every output, and prints the metrics as
// the last line of standard output:
//
//	bash perfbench/run.sh --workload sim-long --seed 1 --seconds 10 --trace 0
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1
// measures the first half of the window untraced and the second half
// traced — spans timed from this package around the calls into each
// layer, and a CPU profile attributed to layers with `go tool pprof -top` —
// and prints the per-layer metrics. README.md describes both.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"
)

// setupReps is how many times a run brings its workload up; setup_s is
// their median. A set-up takes tens of milliseconds, so one alone reads
// mostly the host's jitter, and the host's speed drifts over seconds, so
// the set-ups are split around the window: setupRepsAfter of them follow
// it, and the last of those before it is the instance measured.
const (
	setupReps      = 8
	setupRepsAfter = 4
)

// A benchWorkload is one traffic shape over the system under test.
type benchWorkload interface {
	// setUp brings the system up and runs one warm-up operation.
	setUp() error
	// measure runs operations until window has passed and checks their
	// outputs. A non-nil tr selects the traced variant, which also fills
	// run.layers.
	measure(window time.Duration, tr *tracer) (*run, error)
	// tearDown stops whatever setUp started and waits for it to end.
	tearDown()
}

// env is what every workload is built from.
type env struct {
	seed    int64
	nproc   int
	scratch string // a private directory inside the checkout
}

// workloads maps each workload's name to its constructor; each workload's
// file registers itself.
var workloads = map[string]func(env) (benchWorkload, error){}

// quietLog swallows the logs of the layers under test.
var quietLog = slog.New(slog.NewTextHandler(io.Discard, nil))

// result is the line the benchmark ends with.
type result struct {
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]reading `json:"metrics"`
}

type reading struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed    = flag.Int64("seed", 1, "seed the workload's inputs are generated from")
		seconds = flag.Int("seconds", 10, "length of the measurement window in seconds")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
		scratch = flag.String("scratch", ".bench_build", "directory for temporary files: the fleet's journal and the CPU profile")
	)
	flag.Parse()
	res, err := benchmark(*name, *seed, *seconds, *trace, *scratch)
	if err == nil {
		var line []byte
		if line, err = json.Marshal(res); err == nil {
			fmt.Println(string(line))
			return
		}
	}
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for name := range workloads {
		names = append(names, name)
	}
	slices.Sort(names)
	return names
}

func benchmark(name string, seed int64, seconds, trace int, scratch string) (*result, error) {
	newWorkload, ok := workloads[name]
	switch {
	case !ok:
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames(), ", "))
	case seconds < 1:
		return nil, fmt.Errorf("--seconds %d: want at least 1", seconds)
	case trace != 0 && trace != 1:
		return nil, fmt.Errorf("--trace %d: want 0 or 1", trace)
	}
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(scratch, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	w, err := newWorkload(env{seed: seed, nproc: runtime.GOMAXPROCS(0), scratch: dir})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	var setups []float64
	setUp := func() error {
		start := time.Now()
		err := w.setUp()
		setups = append(setups, time.Since(start).Seconds())
		if err != nil {
			w.tearDown()
			return fmt.Errorf("%s set-up: %w", name, err)
		}
		return nil
	}
	for i := range setupReps - setupRepsAfter {
		if i > 0 {
			w.tearDown()
		}
		if err := setUp(); err != nil {
			return nil, err
		}
	}
	defer w.tearDown()

	window := time.Duration(seconds) * time.Second
	if trace == 1 {
		return tracedRun(name, w, window, dir)
	}
	r, err := w.measure(window, nil)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	for range setupRepsAfter {
		w.tearDown()
		if err := setUp(); err != nil {
			return nil, err
		}
	}
	summarize(name, r)
	fmt.Printf("%s set-ups (s): %.4f\n", name, setups)
	return newResult(r, endToEnd, endToEndValues(setups, r))
}

// tracedRun measures the first half of the window untraced and the second
// half traced, attributes the traced half's CPU profile to layers, and
// checks that the traced variant reproduced the untraced outputs.
func tracedRun(name string, w benchWorkload, window time.Duration, dir string) (*result, error) {
	base, err := w.measure(window/2, nil)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	tr := &tracer{profile: filepath.Join(dir, "cpu.pprof")}
	traced, err := w.measure(window/2, tr)
	if err != nil {
		return nil, fmt.Errorf("%s traced: %w", name, err)
	}
	summarize(name+" untraced", base)
	summarize(name+" traced", traced)
	self, total, err := attribute(tr.profile)
	if err != nil {
		return nil, err
	}
	values := layerValues(traced, self, total)
	values["tracing.throughput_ratio"] = traced.throughput() / base.throughput()

	r := &run{attempted: base.attempted + traced.attempted, failed: base.failed + traced.failed}
	shared := 0
	for unit, digest := range traced.digests {
		if want, ok := base.digests[unit]; ok {
			shared++
			if !r.check(digest == want) {
				fmt.Fprintf(os.Stderr, "perfbench: traced output of %s differs from the untraced one\n", unit)
			}
		}
	}
	if !r.check(shared > 0) {
		fmt.Fprintln(os.Stderr, "perfbench: no unit ran both untraced and traced, so nothing compared them")
	}
	return newResult(r, perLayer, values)
}

// newResult reports the metrics defs names, in their units.
func newResult(r *run, defs []metric, values map[string]float64) (*result, error) {
	if r.attempted == 0 {
		return nil, errors.New("the window completed no operation; lengthen it")
	}
	res := &result{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]reading, len(defs)),
	}
	for _, d := range defs {
		v := values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0 // a ratio over something the workload does not do
		}
		res.Metrics[d.name] = reading{Value: v, Unit: d.unit}
	}
	return res, nil
}

// summarize prints one window's error rate, latency quartiles and output
// digests.
func summarize(label string, r *run) {
	q1, q2, q3 := quartiles(msOf(r.latencies()))
	rate := 0.0
	if r.attempted > 0 {
		rate = float64(r.failed) / float64(r.attempted)
	}
	fmt.Printf("%s: %d operations in %.3fs; %d of %d checks failed, error_rate %g; latency ms q1 %.3f median %.3f q3 %.3f\n",
		label, len(r.ops), r.wall.Seconds(), r.failed, r.attempted, rate, q1, q2, q3)
	digests, _ := json.Marshal(r.digests) // a map of strings always encodes
	fmt.Printf("%s digests: %s\n", label, digests)
}
