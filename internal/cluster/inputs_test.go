//go:build unix

package cluster

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"galsim/internal/campaign"
)

// servePipe makes path a named pipe that serves data to every reader, and
// returns a count of the opens so far. Each open gets a pipe of its own:
// the moment a reader opens one, the next is renamed into place, so a
// reader still draining its pipe never sees a later reader's bytes. It
// skips the test where named pipes are unsupported.
func servePipe(t *testing.T, path string, data []byte) func() int {
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
			opens.Add(1)
			if err := install(); err != nil {
				return
			}
			f.Write(data) //nolint:errcheck // a reader after the header alone hangs up early
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

// TestRunAllOpensEachTraceOnce: the coordinator checks a replay unit and
// pins its trace digest from one read of the trace, before the job is
// enqueued.
func TestRunAllOpensEachTraceOnce(t *testing.T) {
	var rec bytes.Buffer
	if _, err := campaign.ExecuteOpts(campaign.RunSpec{Benchmark: "gcc", Machine: "gals", Instructions: 2_000},
		campaign.ExecOpts{TraceOut: &rec}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "gcc.trace")
	opens := servePipe(t, path, rec.Bytes())

	// No workers: the job stays queued, and nothing but the coordinator
	// reads the trace.
	f := startFleet(t, Config{}, 0, 0)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := f.coord.RunAll(ctx, []campaign.RunSpec{{Trace: &campaign.TraceRef{Path: path}, Machine: "gals"}})
		done <- err
	}()
	waitFor(t, func() bool { return f.coord.Stats().JobsPending > 0 }, "the replay enqueued")
	if n := opens(); n != 1 {
		t.Errorf("coordinator opened the trace %d times before enqueueing, want 1", n)
	}
	cancel()
	if err := <-done; err == nil {
		t.Error("cancelled RunAll returned no error")
	}
}
