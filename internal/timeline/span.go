package timeline

import (
	"bufio"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Span is one wall-clock operation in the fleet, linked into a trace by
// TraceID and ParentID. Spans travel over the cluster wire protocol
// (CompleteRequest.Spans), so the type is JSON-tagged and value-only.
type Span struct {
	TraceID     string            `json:"trace_id"`
	SpanID      string            `json:"span_id"`
	ParentID    string            `json:"parent_id,omitempty"`
	Name        string            `json:"name"`
	Service     string            `json:"service"`
	StartUnixNs int64             `json:"start_unix_ns"`
	EndUnixNs   int64             `json:"end_unix_ns"`
	Attrs       map[string]string `json:"attrs,omitempty"`
}

// NewTraceID returns a random 32-hex-digit W3C trace ID.
func NewTraceID() string { return randHex(16) }

// NewSpanID returns a random 16-hex-digit W3C span ID.
func NewSpanID() string { return randHex(8) }

func randHex(n int) string {
	b := make([]byte, n)
	if _, err := rand.Read(b); err != nil {
		panic("timeline: crypto/rand failed: " + err.Error())
	}
	return hex.EncodeToString(b)
}

// FormatTraceParent renders a W3C traceparent header value
// (version 00, sampled flag set).
func FormatTraceParent(traceID, spanID string) string {
	return "00-" + traceID + "-" + spanID + "-01"
}

// ParseTraceParent parses a W3C traceparent header value. It accepts any
// version, requires the standard field widths, and rejects the all-zero
// IDs the spec reserves as invalid.
func ParseTraceParent(h string) (traceID, spanID string, ok bool) {
	parts := strings.Split(strings.TrimSpace(h), "-")
	if len(parts) < 4 {
		return "", "", false
	}
	ver, tr, sp := parts[0], parts[1], parts[2]
	if len(ver) != 2 || !isHex(ver) || ver == "ff" {
		return "", "", false
	}
	if len(tr) != 32 || !isHex(tr) || tr == strings.Repeat("0", 32) {
		return "", "", false
	}
	if len(sp) != 16 || !isHex(sp) || sp == strings.Repeat("0", 16) {
		return "", "", false
	}
	return strings.ToLower(tr), strings.ToLower(sp), true
}

func isHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case '0' <= c && c <= '9', 'a' <= c && c <= 'f', 'A' <= c && c <= 'F':
		default:
			return false
		}
	}
	return true
}

// DefaultMaxSpans bounds a SpanCollector when the configured cap is 0.
const DefaultMaxSpans = 1 << 14

// SpanCollector is a bounded, concurrency-safe store of finished spans,
// shared between the service, the coordinator and in-process workers. It
// keeps the most recent spans: once full, each new span evicts the oldest.
type SpanCollector struct {
	mu      sync.Mutex
	max     int
	spans   []Span // a ring once full: spans[next] is the oldest
	next    int
	dropped uint64
}

// NewSpanCollector returns a collector retaining at most max spans
// (DefaultMaxSpans when max <= 0).
func NewSpanCollector(max int) *SpanCollector {
	if max <= 0 {
		max = DefaultMaxSpans
	}
	return &SpanCollector{max: max}
}

// Add records finished spans, evicting (and counting) the oldest beyond
// the cap.
func (c *SpanCollector) Add(spans ...Span) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, s := range spans {
		if len(c.spans) < c.max {
			c.spans = append(c.spans, s)
			continue
		}
		c.spans[c.next] = s
		c.next = (c.next + 1) % c.max
		c.dropped++
	}
}

// ForTrace returns a copy of the retained spans recorded under the trace
// ID, oldest first.
func (c *SpanCollector) ForTrace(traceID string) []Span {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []Span
	for _, part := range [2][]Span{c.spans[c.next:], c.spans[:c.next]} {
		for _, s := range part {
			if s.TraceID == traceID {
				out = append(out, s)
			}
		}
	}
	return out
}

// Snapshot returns a copy of every retained span across all traces, oldest
// first.
func (c *SpanCollector) Snapshot() []Span {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Span, 0, len(c.spans))
	return append(append(out, c.spans[c.next:]...), c.spans[:c.next]...)
}

// Len is the number of retained spans.
func (c *SpanCollector) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.spans)
}

// WriteSpansTrace renders spans as Chrome trace-event JSON: one Perfetto
// process per Service, X (complete) events laid out in non-overlapping
// lanes, timestamps rebased to the earliest span start. Output is
// deterministic for a given span set.
func WriteSpansTrace(w io.Writer, spans []Span) error {
	sorted := make([]Span, len(spans))
	copy(sorted, spans)
	sort.Slice(sorted, func(i, j int) bool {
		a, b := sorted[i], sorted[j]
		if a.Service != b.Service {
			return a.Service < b.Service
		}
		if a.StartUnixNs != b.StartUnixNs {
			return a.StartUnixNs < b.StartUnixNs
		}
		return a.SpanID < b.SpanID
	})

	var base int64
	for i, s := range sorted {
		if i == 0 || s.StartUnixNs < base {
			base = s.StartUnixNs
		}
	}

	pids := map[string]int{}
	var services []string
	for _, s := range sorted {
		if _, ok := pids[s.Service]; !ok {
			pids[s.Service] = len(services) + 1
			services = append(services, s.Service)
		}
	}

	bw := bufio.NewWriter(w)
	bw.WriteString("[\n")
	first := true
	emit := func(line string) {
		if !first {
			bw.WriteString(",\n")
		}
		first = false
		bw.WriteString(line)
	}
	for i, svc := range services {
		emit(fmt.Sprintf(`{"ph":"M","pid":%d,"name":"process_name","args":{"name":%s}}`,
			i+1, strconv.Quote(svc)))
	}

	// Greedy lane assignment per service: a span takes the first lane
	// whose previous occupant ended at or before its start.
	laneEnds := map[string][]int64{}
	for _, s := range sorted {
		lanes := laneEnds[s.Service]
		lane := -1
		for i, end := range lanes {
			if end <= s.StartUnixNs {
				lane = i
				break
			}
		}
		if lane < 0 {
			lane = len(lanes)
			lanes = append(lanes, 0)
		}
		lanes[lane] = s.EndUnixNs
		laneEnds[s.Service] = lanes

		ts := float64(s.StartUnixNs-base) / 1e3
		dur := float64(s.EndUnixNs-s.StartUnixNs) / 1e3
		if dur < 0 {
			dur = 0
		}
		var args strings.Builder
		fmt.Fprintf(&args, `"span_id":%s`, strconv.Quote(s.SpanID))
		if s.ParentID != "" {
			fmt.Fprintf(&args, `,"parent_id":%s`, strconv.Quote(s.ParentID))
		}
		keys := make([]string, 0, len(s.Attrs))
		for k := range s.Attrs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&args, `,%s:%s`, strconv.Quote(k), strconv.Quote(s.Attrs[k]))
		}
		emit(fmt.Sprintf(`{"ph":"X","pid":%d,"tid":%d,"ts":%s,"dur":%s,"name":%s,"args":{%s}}`,
			pids[s.Service], lane+1,
			strconv.FormatFloat(ts, 'f', 3, 64),
			strconv.FormatFloat(dur, 'f', 3, 64),
			strconv.Quote(s.Name), args.String()))
	}
	bw.WriteString("\n]\n")
	return bw.Flush()
}

// SimSpans converts the matched B/E windows of a recorder dump into
// spans under the given trace, rebasing simulated time linearly onto the
// [startNs, endNs] wall-clock window of the enclosing span. This is how
// a worker ships a job's in-sim stall and recovery windows back to the
// coordinator so they appear, correctly parented, in the fleet trace.
// At most max spans are returned (0 means no limit).
func (r *Recorder) SimSpans(traceID, parentID, service string, startNs, endNs int64, max int) []Span {
	older, newer := r.ordered()
	if len(older) == 0 {
		return nil
	}
	last := older
	if len(newer) > 0 {
		last = newer
	}
	t0 := int64(older[0].TS)
	t1 := int64(last[len(last)-1].TS)
	scale := 0.0
	if t1 > t0 {
		scale = float64(endNs-startNs) / float64(t1-t0)
	}
	rebase := func(ts int64) int64 {
		return startNs + int64(float64(ts-t0)*scale)
	}
	type open struct {
		name NameID
		ts   int64
	}
	begins := map[TrackID][]open{}
	var out []Span
	for _, events := range [2][]Event{older, newer} {
		for _, ev := range events {
			switch ev.Kind {
			case KindBegin:
				begins[ev.Track] = append(begins[ev.Track], open{ev.Name, int64(ev.TS)})
			case KindEnd:
				st := begins[ev.Track]
				if len(st) == 0 {
					continue
				}
				b := st[len(st)-1]
				begins[ev.Track] = st[:len(st)-1]
				if max > 0 && len(out) >= max {
					continue
				}
				out = append(out, Span{
					TraceID:     traceID,
					SpanID:      NewSpanID(),
					ParentID:    parentID,
					Name:        r.EventName(b.name) + " " + r.TrackName(ev.Track),
					Service:     service,
					StartUnixNs: rebase(b.ts),
					EndUnixNs:   rebase(int64(ev.TS)),
				})
			}
		}
	}
	return out
}
