package cluster

import (
	"bytes"
	"context"
	"testing"

	"galsim/internal/campaign"
	"galsim/internal/telemetry"
	"galsim/internal/timeline"
)

// TestFleetSpanIntegrity runs the golden sweep on a 3-worker fleet with a
// span collector attached and asserts the causal model of the whole sweep:
// one trace ID shared by every span, every parent link resolving, and the
// coordinator + all three workers present as services.
func TestFleetSpanIntegrity(t *testing.T) {
	spans := timeline.NewSpanCollector(0)
	f := startFleet(t, Config{Spans: spans}, 3, 2)

	// Submit with a caller trace context, as a front end would after
	// upgrading an inbound traceparent header.
	callerTrace := timeline.NewTraceID()
	callerSpan := timeline.NewSpanID()
	ctx := telemetry.ContextWithTrace(context.Background(),
		telemetry.TraceContext{TraceID: callerTrace, SpanID: callerSpan})
	units, err := sweepSpecs(goldenSweep())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.coord.RunAll(ctx, units); err != nil {
		t.Fatal(err)
	}

	got := spans.ForTrace(callerTrace)
	if len(got) == 0 {
		t.Fatalf("no spans recorded for the caller's trace ID %s", callerTrace)
	}

	byID := make(map[string]timeline.Span, len(got))
	services := make(map[string]bool)
	names := make(map[string]int)
	for _, sp := range got {
		if sp.TraceID != callerTrace {
			t.Fatalf("span %s carries trace %s, want the caller's %s", sp.SpanID, sp.TraceID, callerTrace)
		}
		if sp.SpanID == "" {
			t.Fatal("span without an ID")
		}
		if prev, dup := byID[sp.SpanID]; dup {
			t.Fatalf("duplicate span ID %s (%q and %q)", sp.SpanID, prev.Name, sp.Name)
		}
		byID[sp.SpanID] = sp
		services[sp.Service] = true
		names[sp.Name]++
		if sp.EndUnixNs < sp.StartUnixNs {
			t.Errorf("span %s (%s) ends before it starts", sp.SpanID, sp.Name)
		}
	}

	// Every parent must resolve to a recorded span — except the campaign
	// root, whose parent is the caller's span.
	for _, sp := range got {
		if sp.ParentID == "" {
			t.Errorf("span %s (%s) has no parent", sp.SpanID, sp.Name)
			continue
		}
		if sp.ParentID == callerSpan {
			if sp.Name != "campaign" {
				t.Errorf("span %s (%s) parents to the caller; only the campaign root may", sp.SpanID, sp.Name)
			}
			continue
		}
		if _, ok := byID[sp.ParentID]; !ok {
			t.Errorf("span %s (%s) has dangling parent %s", sp.SpanID, sp.Name, sp.ParentID)
		}
	}

	if !services["coordinator"] {
		t.Error("no coordinator spans recorded")
	}
	workers := 0
	for _, w := range []string{"worker w1", "worker w2", "worker w3"} {
		if services[w] {
			workers++
		}
	}
	if workers < 2 {
		t.Errorf("spans from only %d workers; a 36-unit sweep on 3 workers should reach at least 2 (services: %v)", workers, services)
	}

	if names["campaign"] != 1 {
		t.Errorf("campaign root spans = %d, want 1", names["campaign"])
	}
	if names["merge"] != 1 {
		t.Errorf("merge spans = %d, want 1", names["merge"])
	}
	// Duplicate canonical specs collapse to one job each (the base machine
	// folds per-domain slowdowns), so lease/execute spans count unique
	// specs, not sweep units.
	unique := make(map[string]bool)
	for _, u := range units {
		unique[u.Key()] = true
	}
	jobCount := len(unique)
	if names["job lease"] < jobCount {
		t.Errorf("job lease spans = %d, want at least %d (one per job)", names["job lease"], jobCount)
	}
	if names["execute"] < jobCount {
		t.Errorf("execute spans = %d, want at least %d", names["execute"], jobCount)
	}
	if names["simulate"]+names["cache-hit"] < jobCount {
		t.Errorf("simulate+cache-hit spans = %d, want at least %d", names["simulate"]+names["cache-hit"], jobCount)
	}

	// The collected spans must render to a Perfetto-loadable trace.
	var buf bytes.Buffer
	if err := timeline.WriteSpansTrace(&buf, got); err != nil {
		t.Fatal(err)
	}
	if err := timeline.Validate(buf.Bytes()); err != nil {
		t.Fatalf("fleet trace is malformed: %v", err)
	}
}

// TestFleetSpansFreshTraceWithoutCaller: with no inbound trace context the
// coordinator mints a fresh trace ID so the sweep is still traceable.
func TestFleetSpansFreshTraceWithoutCaller(t *testing.T) {
	spans := timeline.NewSpanCollector(0)
	f := startFleet(t, Config{Spans: spans}, 1, 2)
	if _, err := f.coord.RunAll(context.Background(), []campaign.RunSpec{
		{Benchmark: "gcc", Instructions: 2_000},
	}); err != nil {
		t.Fatal(err)
	}
	all := spans.Snapshot()
	if len(all) == 0 {
		t.Fatal("no spans recorded without a caller trace context")
	}
	var root timeline.Span
	traces := make(map[string]bool)
	for _, sp := range all {
		traces[sp.TraceID] = true
		if sp.Name == "campaign" {
			root = sp
		}
	}
	if len(traces) != 1 {
		t.Fatalf("spans scattered over %d trace IDs, want 1", len(traces))
	}
	if root.SpanID == "" {
		t.Fatal("no campaign root span")
	}
	if root.ParentID != "" {
		t.Errorf("a self-minted trace's campaign root should have no parent, got %q", root.ParentID)
	}
}

// TestFleetSpansDisabled: without a collector the span plumbing stays
// inert — jobs carry no traceparent and nothing panics.
func TestFleetSpansDisabled(t *testing.T) {
	f := startFleet(t, Config{}, 1, 2)
	ctx := telemetry.ContextWithTrace(context.Background(),
		telemetry.TraceContext{TraceID: timeline.NewTraceID(), SpanID: timeline.NewSpanID()})
	if _, err := f.coord.RunAll(ctx, []campaign.RunSpec{
		{Benchmark: "gcc", Instructions: 2_000},
	}); err != nil {
		t.Fatal(err)
	}
}
