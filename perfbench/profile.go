package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"time"
)

// attribute runs `go tool pprof -top` on a CPU profile and sums its flat
// (self) time by layer. Every function lands in exactly one layer — those
// no rule claims go to "other" — so the layers add up to the profile's
// total.
func attribute(profile string) (map[string]time.Duration, time.Duration, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, "go", "tool", "pprof", "-top",
		"-nodecount=1000000", "-nodefraction=0", "-edgefraction=0", profile)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, 0, fmt.Errorf("go tool pprof: %w: %s", err, bytes.TrimSpace(stderr.Bytes()))
	}
	return parseTop(out)
}

// topRow is one row of `pprof -top`: flat, flat%, sum%, cum, cum%, function.
var topRow = regexp.MustCompile(`^\s*(\S+)\s+\S+%\s+\S+%\s+\S+\s+\S+%\s+(.+)$`)

func parseTop(out []byte) (map[string]time.Duration, time.Duration, error) {
	self := map[string]time.Duration{}
	var total time.Duration
	for _, line := range strings.Split(string(out), "\n") {
		m := topRow.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		d, err := parseFlat(m[1])
		if err != nil {
			continue // not a row of the table
		}
		self[layerOf(m[2])] += d
		total += d
	}
	if total == 0 {
		return nil, 0, errors.New("the CPU profile holds no samples")
	}
	return self, total, nil
}

// parseFlat reads a pprof time column such as "0", "10ms", "1.23s" or
// "1.50mins".
func parseFlat(s string) (time.Duration, error) {
	if s == "0" {
		return 0, nil
	}
	for _, u := range []struct {
		suffix string
		scale  time.Duration
	}{{"mins", time.Minute}, {"hrs", time.Hour}, {"days", 24 * time.Hour}} {
		if v, ok := strings.CutSuffix(s, u.suffix); ok {
			f, err := strconv.ParseFloat(v, 64)
			return time.Duration(f * float64(u.scale)), err
		}
	}
	return time.ParseDuration(s)
}

// layerOf names the layer a profiled function's self time belongs to.
func layerOf(fn string) string {
	pkg := pkgOf(fn)
	switch {
	case pkg == "galsim/internal/pipeline":
		return "pipeline." + stageOf(fn)
	case strings.HasPrefix(pkg, "galsim/internal/"):
		if layer, ok := internalLayers[strings.TrimPrefix(pkg, "galsim/internal/")]; ok {
			return layer
		}
	case pkg == "encoding/json":
		return "encoding_json"
	case pkg == "net" || pkg == "net/textproto" || pkg == "net/url" ||
		strings.HasPrefix(pkg, "net/http") || strings.HasPrefix(pkg, "vendor/golang.org/x/net/http"):
		return "net_http"
	case pkg == "syscall" || pkg == "internal/poll" || pkg == "internal/runtime/syscall":
		return "syscall"
	case pkg == "runtime":
		return runtimeLayer(strings.TrimPrefix(fn, "runtime."))
	}
	return "other"
}

// pkgOf is the import path of a profiled function's package. Receivers and
// type arguments are cut off first: they carry slashes and dots of their
// own.
func pkgOf(fn string) string {
	head := fn
	if i := strings.IndexAny(head, "[("); i >= 0 {
		head = head[:i]
	}
	slash := strings.LastIndex(head, "/")
	if dot := strings.Index(head[slash+1:], "."); dot >= 0 {
		return head[:slash+1+dot]
	}
	return head
}

// internalLayers maps galsim's packages to their layers; packages not
// listed (telemetry, timeline, httpjson, simtime, ...) count as other.
var internalLayers = map[string]string{
	"event": "event", "fifo": "fifo", "cache": "cache", "bpred": "bpred",
	"iq": "iq", "rob": "rob", "rename": "rename", "isa": "isa",
	"clock": "clock", "clocktree": "clock", "dvfs": "clock", "power": "power",
	"workload": "workload", "trace": "workload",
	"campaign": "campaign", "machine": "machine", "explore": "explore",
	"service": "service", "admission": "admission", "cluster": "cluster",
	"wal": "wal", "snapshot": "snapshot",
}

// stageMethods maps the pipeline's stage methods, and the helpers only
// they call, to their stages; the rest of the pipeline counts as other.
var stageMethods = map[string]string{
	"stageFetch":            "fetch",
	"stageDecode":           "decode",
	"stageRenameDispatch":   "rename_dispatch",
	"stageDrainDispatch":    "rename_dispatch",
	"stageIssue":            "issue",
	"selectMemOps":          "issue",
	"stageComplete":         "complete",
	"stageDrainCompletions": "complete",
	"stageDrainWakeups":     "complete",
	"wakeLinksFor":          "complete",
	"stageCommit":           "commit",
}

func stageOf(fn string) string {
	if _, method, ok := strings.Cut(fn, ".(*Core)."); ok {
		name, _, _ := strings.Cut(method, ".") // a closure: stageIssue.func1
		if stage, ok := stageMethods[name]; ok {
			return stage
		}
	}
	return "other"
}

// runtimeLayer splits the runtime's self time into the collector, system
// calls, and the rest — allocation, scheduling — which counts as other.
func runtimeLayer(name string) string {
	for _, prefix := range gcFuncs {
		if strings.HasPrefix(name, prefix) {
			return "runtime_gc"
		}
	}
	if syscallFuncs[name] {
		return "syscall"
	}
	return "other"
}

var gcFuncs = []string{
	"gc", "scan", "mark", "sweep", "greyobject", "findObject", "wbBuf",
	"bulkBarrier", "heapBits", "typePointers", "spanOf", "bgsweep", "bgscavenge",
	"(*gc", "(*mspan).sweep", "(*mspan).mark", "(*mspan).heapBits", "(*mspan).typePointers",
	"(*sweep", "(*mheap).reclaim", "(*markBits)", "(*activeSweep)", "(*scavenger", "(*pageAlloc).scav",
}

var syscallFuncs = map[string]bool{
	"futex": true, "epollwait": true, "write1": true, "read": true, "usleep": true,
	"nanosleep": true, "osyield": true, "madvise": true, "mmap": true, "munmap": true,
}
