package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"os"
	"runtime/metrics"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"
)

// op is one completed operation: what a user of the workload waits for.
type op struct {
	latency time.Duration
	instrs  uint64 // simulated committed instructions its results carry
	evals   int    // simulation units it evaluated
}

// run is what one measurement window saw.
type run struct {
	wall       time.Duration // from the window's start to its last operation's end
	allocBytes uint64        // heap bytes allocated in the window
	gcFraction float64       // share of the window's CPU time the collector took (traced windows)
	ops        []op
	passes     []time.Duration
	attempted  int                // output checks made
	failed     int                // output checks failed
	byRequests bool               // tracing overhead compares request rates, not instruction rates
	digests    map[string]string  // output digest by unit
	layers     map[string]float64 // span metrics of a traced window
}

// check counts one output check and reports whether it passed.
func (r *run) check(ok bool) bool {
	r.attempted++
	if !ok {
		r.failed++
	}
	return ok
}

// record keeps a unit's output digest. It reports false when an earlier
// pass of the same window produced a different digest for the unit.
func (r *run) record(unit, digest string) bool {
	if r.digests == nil {
		r.digests = map[string]string{}
	}
	if prev, ok := r.digests[unit]; ok && prev != digest {
		return false
	}
	r.digests[unit] = digest
	return true
}

func (r *run) instrs() (n uint64) {
	for _, o := range r.ops {
		n += o.instrs
	}
	return n
}

func (r *run) evals() (n int) {
	for _, o := range r.ops {
		n += o.evals
	}
	return n
}

func (r *run) latencies() []time.Duration {
	lat := make([]time.Duration, len(r.ops))
	for i, o := range r.ops {
		lat[i] = o.latency
	}
	return lat
}

// throughput is the rate tracing overhead is judged by.
func (r *run) throughput() float64 {
	if r.byRequests {
		return float64(len(r.ops)) / r.wall.Seconds()
	}
	return float64(r.instrs()) / r.wall.Seconds()
}

// tracer marks a traced measurement: the window's meter writes a CPU
// profile to the named file while the window runs.
type tracer struct{ profile string }

// meter brackets a measurement window.
type meter struct {
	start   time.Time
	alloc   uint64
	prof    *os.File
	gc, cpu float64
}

func startMeter(tr *tracer) (*meter, error) {
	m := &meter{}
	if tr != nil {
		f, err := os.Create(tr.profile)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		m.prof = f
		m.gc, m.cpu = cpuSeconds()
	}
	m.alloc = heapAllocs()
	m.start = time.Now()
	return m, nil
}

func (m *meter) elapsed() time.Duration { return time.Since(m.start) }

// stop closes the window and files its wall time, allocations and
// collector share in r.
func (m *meter) stop(r *run) error {
	r.wall = time.Since(m.start)
	r.allocBytes = heapAllocs() - m.alloc
	if m.prof == nil {
		return nil
	}
	pprof.StopCPUProfile()
	if gc, cpu := cpuSeconds(); cpu > m.cpu {
		r.gcFraction = (gc - m.gc) / (cpu - m.cpu)
	}
	return m.prof.Close()
}

func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// cpuSeconds reads the runtime's estimate of CPU time spent in the
// collector and in total.
func cpuSeconds() (gc, total float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// peakRSSMB is the process's peak resident set (VmHWM), falling back to
// the memory the Go runtime has mapped where /proc is unavailable.
func peakRSSMB() float64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(rest, "kB")), 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	s := []metrics.Sample{{Name: "/memory/classes/total:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// durations collects timings from concurrent goroutines.
type durations struct {
	mu sync.Mutex
	d  []time.Duration
}

func (s *durations) add(d time.Duration) {
	s.mu.Lock()
	s.d = append(s.d, d)
	s.mu.Unlock()
}

// take returns the timings collected so far and starts afresh.
func (s *durations) take() []time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	d := s.d
	s.d = nil
	return d
}

// percentile interpolates linearly between the closest ranks; it is 0
// when there is no data.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (s[lo+1]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 50) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// quartiles returns the three quartiles by the method of Python's
// statistics.quantiles(xs, n=4) — the "exclusive" method, which the
// benchmark's run-to-run spreads are judged by.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func msOf(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// digestOf is the hex SHA-256 of v's JSON encoding.
func digestOf(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		return "unencodable: " + err.Error()
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// derive draws stream number stream of the run's seed: a positive value
// below 2^31, so it is a valid, non-default simulator seed.
func derive(seed int64, stream uint64) int64 {
	return int64(splitmix64(uint64(seed)^splitmix64(stream))>>33) + 1
}

func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ x>>30) * 0xBF58476D1CE4E5B9
	x = (x ^ x>>27) * 0x94D049BB133111EB
	return x ^ x>>31
}

// forEach calls fn for 0..n-1, running at most cap(sem) calls at once
// across every caller sharing sem, and joins the errors.
func forEach(sem chan struct{}, n int, fn func(i int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range n {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer func() { <-sem; wg.Done() }()
			errs[i] = fn(i)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}
