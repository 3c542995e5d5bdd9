package timeline

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"

	"galsim/internal/simtime"
)

// rec builds a recorder with one process, one plain track and one counter
// track, plus two interned names.
func testRecorder(o Options) (*Recorder, TrackID, TrackID, NameID, NameID) {
	r := NewRecorder(o)
	trk := r.RegisterTrack("sim", "domain fetch", false)
	ctr := r.RegisterTrack("sim", "occ rob", true)
	stall := r.InternName("stall")
	push := r.InternName("push")
	return r, trk, ctr, stall, push
}

func TestRecorderFullModeDrops(t *testing.T) {
	r, trk, _, stall, _ := testRecorder(Options{MaxEvents: 4})
	for i := 0; i < 6; i++ {
		r.Record(simtime.Time(i), KindInstant, trk, stall, int64(i))
	}
	if r.Len() != 4 {
		t.Fatalf("Len = %d, want 4", r.Len())
	}
	if r.Dropped() != 2 {
		t.Fatalf("Dropped = %d, want 2", r.Dropped())
	}
	evs := r.Events()
	for i, ev := range evs {
		if ev.Arg != int64(i) {
			t.Fatalf("full mode keeps the first events: got arg %d at %d", ev.Arg, i)
		}
	}
}

func TestRecorderFlightWrap(t *testing.T) {
	r, trk, _, stall, _ := testRecorder(Options{MaxEvents: 4, Flight: true})
	for i := 0; i < 10; i++ {
		r.Record(simtime.Time(i), KindInstant, trk, stall, int64(i))
	}
	if r.Len() != 4 {
		t.Fatalf("Len = %d, want 4", r.Len())
	}
	evs := r.Events()
	want := []int64{6, 7, 8, 9}
	for i, ev := range evs {
		if ev.Arg != want[i] {
			t.Fatalf("flight ring keeps the last events in order: got %d at %d, want %d", ev.Arg, i, want[i])
		}
		if i > 0 && evs[i].TS < evs[i-1].TS {
			t.Fatalf("unwrapped ring is not time-ordered at %d", i)
		}
	}
	if r.Dropped() != 6 {
		t.Fatalf("Dropped = %d, want 6 overwritten", r.Dropped())
	}
}

func TestWriteTraceValidates(t *testing.T) {
	r, trk, ctr, stall, push := testRecorder(Options{})
	r.Record(0, KindCounter, ctr, 0, 3)
	r.Record(100, KindBegin, trk, stall, 0)
	r.Record(150, KindInstant, trk, push, 7)
	r.Record(200, KindEnd, trk, stall, 0)
	r.Record(300, KindCounter, ctr, 0, 5)
	data := r.TraceJSON()
	if err := Validate(data); err != nil {
		t.Fatalf("Validate: %v\n%s", err, data)
	}
	for _, want := range []string{`"process_name"`, `"thread_name"`, `"domain fetch"`, `"occ rob"`, `"ph":"B"`, `"ph":"E"`, `"ph":"i"`, `"ph":"C"`} {
		if !strings.Contains(string(data), want) {
			t.Fatalf("trace missing %s:\n%s", want, data)
		}
	}
}

// TestWriteTraceNormalizesFlightDump covers the two truncation artifacts of
// a flight ring: an E whose B fell off the front (dropped) and a B whose E
// never arrived (closed at the final timestamp).
func TestWriteTraceNormalizesFlightDump(t *testing.T) {
	r, trk, _, stall, push := testRecorder(Options{})
	r.Record(100, KindEnd, trk, stall, 0)  // orphan end
	r.Record(200, KindBegin, trk, push, 0) // never closed
	r.Record(250, KindInstant, trk, stall, 0)
	data := r.TraceJSON()
	if err := Validate(data); err != nil {
		t.Fatalf("normalized dump must validate: %v\n%s", err, data)
	}
	s := string(data)
	if strings.Contains(s, `"ph":"E","pid":1,"tid":1,"ts":0.000100`) {
		t.Fatalf("orphan E survived:\n%s", s)
	}
	if !strings.Contains(s, `"ph":"E"`) {
		t.Fatalf("open B was not auto-closed:\n%s", s)
	}
}

func TestValidateRejects(t *testing.T) {
	cases := map[string]string{
		"non-monotonic": `[{"ph":"i","pid":1,"tid":1,"ts":5,"name":"a"},{"ph":"i","pid":1,"tid":1,"ts":4,"name":"b"}]`,
		"orphan end":    `[{"ph":"E","pid":1,"tid":1,"ts":1,"name":"a"}]`,
		"name mismatch": `[{"ph":"B","pid":1,"tid":1,"ts":1,"name":"a"},{"ph":"E","pid":1,"tid":1,"ts":2,"name":"b"}]`,
		"unclosed":      `[{"ph":"B","pid":1,"tid":1,"ts":1,"name":"a"}]`,
		"negative dur":  `[{"ph":"X","pid":1,"tid":1,"ts":1,"dur":-2,"name":"a"}]`,
		"not an array":  `{"ph":"B"}`,
	}
	for name, data := range cases {
		if err := Validate([]byte(data)); err == nil {
			t.Errorf("%s: Validate accepted invalid trace", name)
		}
	}
}

func TestTraceParentRoundTrip(t *testing.T) {
	tr, sp := NewTraceID(), NewSpanID()
	h := FormatTraceParent(tr, sp)
	gotTr, gotSp, ok := ParseTraceParent(h)
	if !ok || gotTr != tr || gotSp != sp {
		t.Fatalf("round trip failed: %q -> (%q, %q, %v)", h, gotTr, gotSp, ok)
	}
	bad := []string{
		"",
		"00-abc-def-01",
		"00-" + strings.Repeat("0", 32) + "-" + sp + "-01",
		"00-" + tr + "-" + strings.Repeat("0", 16) + "-01",
		"ff-" + tr + "-" + sp + "-01",
		"zz-" + tr + "-" + sp + "-01",
	}
	for _, h := range bad {
		if _, _, ok := ParseTraceParent(h); ok {
			t.Errorf("ParseTraceParent accepted %q", h)
		}
	}
}

func TestSpanCollectorBounds(t *testing.T) {
	c := NewSpanCollector(3)
	mk := func(id string) Span { return Span{TraceID: "t", SpanID: id, Service: "s"} }
	c.Add(mk("a"), mk("b"))
	c.Add(mk("c"), mk("d"), mk("e"))
	if c.Len() != 3 {
		t.Fatalf("Len = %d, want cap 3", c.Len())
	}
	if c.Dropped() != 2 {
		t.Fatalf("Dropped = %d, want 2", c.Dropped())
	}
	if got := len(c.ForTrace("t")); got != 3 {
		t.Fatalf("ForTrace = %d spans, want 3", got)
	}
	if got := len(c.ForTrace("other")); got != 0 {
		t.Fatalf("ForTrace(other) = %d spans, want 0", got)
	}
}

// TestSpanCollectorConcurrent hammers the collector from many goroutines;
// run under -race this is the data-race regression test for the one
// concurrent structure in the package.
func TestSpanCollectorConcurrent(t *testing.T) {
	c := NewSpanCollector(10000)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				c.Add(Span{TraceID: fmt.Sprintf("t%d", g%2), SpanID: NewSpanID(), Service: "w"})
				_ = c.ForTrace("t0")
				_ = c.Len()
				_ = c.Dropped()
			}
		}(g)
	}
	wg.Wait()
	if c.Len() != 8*200 {
		t.Fatalf("Len = %d, want %d", c.Len(), 8*200)
	}
}

func TestWriteSpansTraceLanesAndValidity(t *testing.T) {
	spans := []Span{
		{TraceID: "t", SpanID: "s1", Name: "campaign", Service: "coordinator", StartUnixNs: 1000, EndUnixNs: 9000},
		{TraceID: "t", SpanID: "s2", ParentID: "s1", Name: "job lease", Service: "coordinator", StartUnixNs: 2000, EndUnixNs: 5000},
		{TraceID: "t", SpanID: "s3", ParentID: "s1", Name: "job lease", Service: "coordinator", StartUnixNs: 2500, EndUnixNs: 6000},
		{TraceID: "t", SpanID: "s4", ParentID: "s2", Name: "execute", Service: "worker w1", StartUnixNs: 2100, EndUnixNs: 4900,
			Attrs: map[string]string{"job_id": "1", "benchmark": "gcc"}},
	}
	var buf bytes.Buffer
	if err := WriteSpansTrace(&buf, spans); err != nil {
		t.Fatal(err)
	}
	if err := Validate(buf.Bytes()); err != nil {
		t.Fatalf("Validate: %v\n%s", err, buf.Bytes())
	}
	s := buf.String()
	// The two overlapping leases must land on different lanes of the same
	// coordinator process.
	if !strings.Contains(s, `"tid":2`) {
		t.Fatalf("overlapping spans share a lane:\n%s", s)
	}
	for _, want := range []string{`"parent_id":"s1"`, `"benchmark":"gcc"`, `"name":"campaign"`, `"name":"execute"`} {
		if !strings.Contains(s, want) {
			t.Fatalf("spans trace missing %s:\n%s", want, s)
		}
	}
}

func TestSimSpansRebase(t *testing.T) {
	r, trk, _, stall, _ := testRecorder(Options{})
	r.Record(0, KindInstant, trk, stall, 0)
	r.Record(1000, KindBegin, trk, stall, 0)
	r.Record(2000, KindEnd, trk, stall, 0)
	r.Record(4000, KindInstant, trk, stall, 0)
	spans := r.SimSpans("trace", "parent", "worker w1", 10_000, 14_000, 0)
	if len(spans) != 1 {
		t.Fatalf("got %d spans, want 1", len(spans))
	}
	sp := spans[0]
	if sp.TraceID != "trace" || sp.ParentID != "parent" || sp.Service != "worker w1" {
		t.Fatalf("span identity wrong: %+v", sp)
	}
	// Sim time [0,4000] maps onto wall [10000,14000]; the window [1000,2000]
	// lands at [11000,12000].
	if sp.StartUnixNs != 11_000 || sp.EndUnixNs != 12_000 {
		t.Fatalf("rebase wrong: [%d,%d], want [11000,12000]", sp.StartUnixNs, sp.EndUnixNs)
	}
	if !strings.Contains(sp.Name, "stall") || !strings.Contains(sp.Name, "domain fetch") {
		t.Fatalf("span name %q should carry event and track names", sp.Name)
	}
}

func TestSimSpansCap(t *testing.T) {
	r, trk, _, stall, _ := testRecorder(Options{})
	for i := 0; i < 10; i++ {
		r.Record(simtime.Time(i*10), KindBegin, trk, stall, 0)
		r.Record(simtime.Time(i*10+5), KindEnd, trk, stall, 0)
	}
	if got := len(r.SimSpans("t", "p", "s", 0, 1000, 3)); got != 3 {
		t.Fatalf("cap ignored: got %d spans, want 3", got)
	}
}

// TestResetReusesRecorder: SimSpans reads a wrapped flight ring in record
// order (a window that begins in the ring's older half and ends in its
// newer half is one span), and a Reset recorder, registered and fed
// again, renders what a fresh one renders.
func TestResetReusesRecorder(t *testing.T) {
	feed := func(r *Recorder) []Span {
		trk := r.RegisterTrack("sim", "domain fetch", false)
		stall := r.InternName("stall")
		r.Record(0, KindInstant, trk, stall, 0)
		r.Record(1, KindInstant, trk, stall, 0)
		r.Record(10, KindBegin, trk, stall, 0)
		r.Record(20, KindInstant, trk, stall, 0)
		r.Record(30, KindEnd, trk, stall, 0) // the ring is [20 30 | 10]: older 10, newer 20 30
		spans := r.SimSpans("t", "p", "s", 0, 200, 0)
		for i := range spans {
			spans[i].SpanID = "" // random
		}
		return spans
	}
	want := feed(NewRecorder(Options{MaxEvents: 3, Flight: true}))
	if len(want) != 1 || want[0].StartUnixNs != 0 || want[0].EndUnixNs != 200 {
		t.Fatalf("wrapped ring spans = %+v, want one window over [0,200]", want)
	}
	r := NewRecorder(Options{MaxEvents: 3, Flight: true})
	feed(r)
	r.MarkTriggered()
	r.Reset()
	if r.Len() != 0 || r.Dropped() != 0 || r.Triggered() || r.TrackName(0) != "" {
		t.Fatalf("Reset left state: len %d dropped %d triggered %v track %q",
			r.Len(), r.Dropped(), r.Triggered(), r.TrackName(0))
	}
	if got := feed(r); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("reused recorder spans = %+v, want %+v", got, want)
	}
}
