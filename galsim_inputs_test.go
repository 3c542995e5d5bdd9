//go:build unix

package galsim

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"galsim/internal/campaign"
	"galsim/internal/trace"
	"galsim/internal/workload"
)

// servePipe makes path a named pipe whose first reader gets first and
// every later reader gets later, and returns a count of the opens so far.
// Each open gets a pipe of its own: the moment a reader opens one, the
// next is renamed into place, so a reader still draining its pipe never
// sees a later reader's bytes. It skips the test where named pipes are
// unsupported.
func servePipe(t *testing.T, path string, first, later []byte) func() int {
	t.Helper()
	var (
		opens, seq atomic.Int32
		wg         sync.WaitGroup
		stop       = make(chan struct{})
	)
	var install func() error
	install = func() error {
		own := fmt.Sprintf("%s.%d", path, seq.Add(1))
		if err := syscall.Mkfifo(own, 0o600); err != nil {
			return err
		}
		if err := os.Link(own, own+".pub"); err != nil {
			return err
		}
		if err := os.Rename(own+".pub", path); err != nil {
			return err
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			f, err := os.OpenFile(own, os.O_WRONLY, 0) // blocks until a reader opens path
			os.Remove(own)
			if err != nil {
				return
			}
			defer f.Close()
			select {
			case <-stop:
				return
			default:
			}
			b := later
			if opens.Add(1) == 1 {
				b = first
			}
			if err := install(); err != nil {
				return
			}
			f.Write(b) //nolint:errcheck // a reader after the header alone hangs up early
		}()
		return nil
	}
	if err := install(); err != nil {
		t.Skipf("named pipes unsupported: %v", err)
	}
	t.Cleanup(func() {
		close(stop)
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		for {
			// A reader of our own releases the pipe still waiting for one.
			r, err := os.OpenFile(path, os.O_RDONLY|syscall.O_NONBLOCK, 0)
			select {
			case <-done:
			case <-time.After(10 * time.Millisecond):
			}
			if err == nil {
				r.Close()
			}
			select {
			case <-done:
				return
			default:
			}
		}
	})
	return func() int { return int(opens.Load()) }
}

func mustRead(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestRunSimulatesTheBytesItChecked serves each input file of a run through
// a named pipe that yields the real file on the first open and another
// valid file (a different workload's trace, or a snapshot of another
// configuration) on every later open. Run must open each input once and
// reproduce the same run from regular files.
func TestRunSimulatesTheBytesItChecked(t *testing.T) {
	dir := t.TempDir()
	file := func(name string) string { return filepath.Join(dir, name) }
	for _, bench := range []string{"gcc", "li"} {
		if _, err := Run(Options{Benchmark: bench, Machine: GALS, Instructions: 20_000, RecordTrace: file(bench + ".trace")}); err != nil {
			t.Fatal(err)
		}
		if _, err := Run(Options{Trace: file(bench + ".trace"), Machine: GALS, Warmup: 5_000, SnapshotOut: file(bench + "-replay.snap")}); err != nil {
			t.Fatal(err)
		}
		if _, err := Run(Options{Benchmark: bench, Machine: GALS, Instructions: 20_000, Warmup: 5_000, SnapshotOut: file(bench + "-bench.snap")}); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		name        string
		opts        Options
		trace, snap string // the real inputs, gcc's; li's stand in for them on later opens
	}{
		{name: "replay", opts: Options{Machine: GALS}, trace: "gcc.trace"},
		{name: "replay-resume", opts: Options{Machine: GALS}, trace: "gcc.trace", snap: "gcc-replay.snap"},
		{name: "bench-resume", opts: Options{Benchmark: "gcc", Machine: GALS, Instructions: 20_000}, snap: "gcc-bench.snap"},
	}
	decoys := map[string]string{"gcc.trace": "li.trace", "gcc-replay.snap": "li-replay.snap", "gcc-bench.snap": "li-bench.snap"}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// piped returns tc.opts with each input served through a pipe,
			// the real bytes first and those of decoy(input) afterwards.
			var opens []func() int
			piped := func(tag string, decoy func(string) string) Options {
				o := tc.opts
				if tc.trace != "" {
					o.Trace = file(fmt.Sprintf("%s%d.trace", tag, i))
					opens = append(opens, servePipe(t, o.Trace, mustRead(t, file(tc.trace)), mustRead(t, file(decoy(tc.trace)))))
				}
				if tc.snap != "" {
					o.SnapshotIn = file(fmt.Sprintf("%s%d.snap", tag, i))
					opens = append(opens, servePipe(t, o.SnapshotIn, mustRead(t, file(tc.snap)), mustRead(t, file(decoy(tc.snap)))))
				}
				return o
			}
			want := tc.opts
			if tc.trace != "" {
				want.Trace = file(tc.trace)
			}
			if tc.snap != "" {
				want.SnapshotIn = file(tc.snap)
			}
			wantRes, err := Run(want)
			if err != nil {
				t.Fatal(err)
			}
			gotRes, err := Run(piped("run", func(name string) string { return decoys[name] }))
			if err != nil {
				t.Fatalf("run from pipes: %v", err)
			}
			for j, n := range opens {
				if n() != 1 {
					t.Errorf("Run opened input %d %d times, want 1", j, n())
				}
			}
			if !reflect.DeepEqual(gotRes, wantRes) {
				t.Errorf("run from pipes differs from the run from files:\n got %+v\nwant %+v", gotRes, wantRes)
			}

			// RunMany validates the batch before it runs any of it: one
			// open for each, so the pipes serve the real bytes throughout.
			opens = nil
			many, err := RunMany(context.Background(), []Options{piped("many", func(name string) string { return name })})
			if err != nil {
				t.Fatalf("RunMany from pipes: %v", err)
			}
			for j, n := range opens {
				if n() > 2 {
					t.Errorf("RunMany opened input %d %d times, want at most 2", j, n())
				}
			}
			if !reflect.DeepEqual(many[0], wantRes) {
				t.Errorf("RunMany from pipes differs from Run from files:\n got %+v\nwant %+v", many[0], wantRes)
			}
		})
	}
}

// TestOverLengthReplayOpensOnlyItsOwnTrace validates a same-configuration
// replay that asks for more instructions than its trace records. The
// trace's header records a spec naming another trace and a snapshot;
// deciding that the replay keeps the recorded configuration must open
// neither, and must read the replayed trace once.
func TestOverLengthReplayOpensOnlyItsOwnTrace(t *testing.T) {
	dir := t.TempDir()
	other, snap := filepath.Join(dir, "other.trace"), filepath.Join(dir, "other.snap")
	recorded := fmt.Sprintf(`{"benchmark":"gcc","machine":"base","instructions":2000,"trace":{"path":%q},"snapshot":{"path":%q}}`, other, snap)
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf, trace.Meta{Name: "crafted", Instructions: 2_000, SpecJSON: []byte(recorded)})
	if err != nil {
		t.Fatal(err)
	}
	prof, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	gen := workload.NewGenerator(prof, 42)
	for range 2_000 {
		w.Instr(gen.Next())
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "crafted.trace")
	own := servePipe(t, path, buf.Bytes(), buf.Bytes())
	otherOpens := servePipe(t, other, buf.Bytes(), buf.Bytes())
	snapOpens := servePipe(t, snap, nil, nil)

	err = Options{Trace: path, Instructions: 5_000}.Validate()
	var tle *campaign.TraceLengthError
	if !errors.As(err, &tle) {
		t.Fatalf("Validate = %v, want a TraceLengthError", err)
	}
	if n := own(); n != 1 {
		t.Errorf("replayed trace opened %d times, want 1", n)
	}
	if n, m := otherOpens(), snapOpens(); n != 0 || m != 0 {
		t.Errorf("files named in the trace header were opened: trace %d times, snapshot %d times", n, m)
	}
}

// TestValidateOfACaptureOpensTheTraceOnce checks a fast-forward of a
// replay: its warm-up is held against the replay's budget, which the trace
// records, without a second read of the trace.
func TestValidateOfACaptureOpensTheTraceOnce(t *testing.T) {
	dir := t.TempDir()
	recorded := filepath.Join(dir, "gcc.trace")
	if _, err := Run(Options{Benchmark: "gcc", Machine: GALS, Instructions: 4_000, RecordTrace: recorded}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "piped.trace")
	data := mustRead(t, recorded)
	opens := servePipe(t, path, data, data)
	o := Options{Trace: path, Machine: GALS, Warmup: 1_000, SnapshotOut: filepath.Join(dir, "warm.snap")}
	if err := o.Validate(); err != nil {
		t.Fatal(err)
	}
	if n := opens(); n != 1 {
		t.Errorf("Validate opened the trace %d times, want 1", n)
	}
}

// TestRunManyRefusesASwappedTrace: RunMany checks a replay's trace and pins
// its digest, and the run reads the trace again; a trace that holds other
// bytes by then fails the run with the digest mismatch instead of running
// them.
func TestRunManyRefusesASwappedTrace(t *testing.T) {
	dir := t.TempDir()
	digests := map[string]string{}
	for _, bench := range []string{"gcc", "li"} {
		path := filepath.Join(dir, bench+".trace")
		if _, err := Run(Options{Benchmark: bench, Machine: GALS, Instructions: 4_000, RecordTrace: path}); err != nil {
			t.Fatal(err)
		}
		tr, err := trace.Load(path)
		if err != nil {
			t.Fatal(err)
		}
		digests[bench] = tr.Digest()
	}
	path := filepath.Join(dir, "piped.trace")
	opens := servePipe(t, path, mustRead(t, filepath.Join(dir, "gcc.trace")), mustRead(t, filepath.Join(dir, "li.trace")))
	_, err := RunManyOn(context.Background(), campaign.NewEngine(1), []Options{{Trace: path, Machine: GALS}})
	want := fmt.Sprintf("campaign: unit 0 (gals/replay:gcc): campaign: trace %s content digest %s does not match the requested %s (file changed?)",
		path, digests["li"], digests["gcc"])
	if err == nil || err.Error() != want {
		t.Errorf("RunMany of a swapped trace:\n got %v\nwant %s", err, want)
	}
	if n := opens(); n != 2 {
		t.Errorf("RunMany opened the trace %d times, want 2: once to check, once to run", n)
	}
}
