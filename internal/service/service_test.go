package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"galsim/internal/campaign"
	"galsim/internal/pipeline"
	"galsim/internal/report"
)

func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(campaign.NewEngine(0))
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, ts
}

func post(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

func get(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

func TestRunEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	resp, body := post(t, ts.URL+"/run",
		`{"benchmark":"gcc","machine":"gals","instructions":8000,"slowdowns":{"fp":2}}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	var rr RunResponse
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatal(err)
	}
	if rr.Key == "" || rr.Summary.Committed != 8000 || rr.Summary.Benchmark != "gcc" {
		t.Errorf("response = %+v", rr)
	}
	if rr.Summary.EnergyJoules <= 0 || rr.Summary.IPC <= 0 {
		t.Errorf("metrics not populated: %+v", rr.Summary)
	}
}

func TestRunEndpointValidation(t *testing.T) {
	_, ts := newTestServer(t)
	// The invalid-domain error must reach API users with the valid domain
	// list intact.
	resp, body := post(t, ts.URL+"/run",
		`{"benchmark":"gcc","machine":"gals","slowdowns":{"warp":2}}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
	for _, want := range []string{"warp", "fetch", "decode", "int", "fp", "mem"} {
		if !strings.Contains(string(body), want) {
			t.Errorf("error body %s missing %q", body, want)
		}
	}
	if resp, body := post(t, ts.URL+"/run", `{"bench":"gcc"}`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field accepted: %d %s", resp.StatusCode, body)
	}
}

// TestRunEndpointRefusesServerFiles: a /run body that names a trace or a
// snapshot is refused before the server touches the path, so the answer
// is the same for a regular file, a directory and a missing path.
func TestRunEndpointRefusesServerFiles(t *testing.T) {
	_, ts := newTestServer(t)
	dir := t.TempDir()
	file := filepath.Join(dir, "not-a-snapshot")
	if err := os.WriteFile(file, []byte("hello\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ field, want string }{
		{"trace", "trace replay is not available over HTTP"},
		{"snapshot", "snapshot restore is not available over HTTP"},
	} {
		var first []byte
		for _, path := range []string{file, dir, filepath.Join(dir, "missing")} {
			resp, body := post(t, ts.URL+"/run", fmt.Sprintf(`{"benchmark":"gcc","%s":{"path":%q}}`, c.field, path))
			if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), c.want) {
				t.Errorf("%s %s: status %d, body %s; want 400 saying %q", c.field, path, resp.StatusCode, body, c.want)
			}
			if first == nil {
				first = body
			} else if !bytes.Equal(body, first) {
				t.Errorf("%s %s: body %s differs from %s: it tells the client about the path", c.field, path, body, first)
			}
		}
	}
}

func TestSweepEndpointCachesRepeatedSpecs(t *testing.T) {
	srv, ts := newTestServer(t)
	sweepBody := `{"benchmarks":["gcc","li"],"machines":["base","gals"],"instructions":5000}`

	resp, body := post(t, ts.URL+"/sweep", sweepBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	var first SweepResponse
	if err := json.Unmarshal(body, &first); err != nil {
		t.Fatal(err)
	}
	if first.Units != 4 || len(first.Results) != 4 {
		t.Fatalf("first sweep: %d units, %d results", first.Units, len(first.Results))
	}
	misses := srv.Engine().Stats().Misses

	// Concurrent identical sweeps: all succeed, nothing is re-simulated.
	var wg sync.WaitGroup
	bodies := make([][]byte, 4)
	for i := range bodies {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/sweep", "application/json", strings.NewReader(sweepBody))
			if err != nil {
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				bodies[i], _ = io.ReadAll(resp.Body)
			}
		}(i)
	}
	wg.Wait()
	for i, b := range bodies {
		if b == nil {
			t.Fatalf("concurrent sweep %d failed", i)
		}
		var repeat SweepResponse
		if err := json.Unmarshal(b, &repeat); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(mustJSON(t, repeat.Results), mustJSON(t, first.Results)) {
			t.Errorf("concurrent sweep %d returned different results", i)
		}
		if repeat.Cache.Hits == 0 {
			t.Errorf("concurrent sweep %d reported no cache hits: %+v", i, repeat.Cache)
		}
	}
	if after := srv.Engine().Stats().Misses; after != misses {
		t.Errorf("repeated sweeps re-simulated units: misses %d -> %d", misses, after)
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestSweepUnitLimit(t *testing.T) {
	srv, ts := newTestServer(t)
	srv.MaxSweepUnits = 3
	resp, body := post(t, ts.URL+"/sweep", `{"benchmarks":["gcc","li"],"machines":["base","gals"],"instructions":5000}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
	if !strings.Contains(string(body), "limit") {
		t.Errorf("body %s does not explain the limit", body)
	}
}

func TestExperimentEndpoint(t *testing.T) {
	_, ts := newTestServer(t)

	resp, body := get(t, ts.URL+"/experiments/table1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("table1: status %d, body %s", resp.StatusCode, body)
	}
	var tables []*report.Table
	if err := json.Unmarshal(body, &tables); err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 || tables[0].ID != "Table 1" || len(tables[0].Rows) != 5 {
		t.Errorf("table1 = %+v", tables)
	}

	resp, body = get(t, ts.URL+"/experiments/5?n=6000&benchmarks=gcc,fpppp")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fig5: status %d, body %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &tables); err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 || len(tables[0].Rows) != 3 { // 2 benchmarks + average
		t.Errorf("fig5 = %+v", tables[0])
	}

	// Text and CSV formats for the same figure are cache hits by now.
	resp, body = get(t, ts.URL+"/experiments/5?n=6000&benchmarks=gcc,fpppp&format=text")
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "Figure 5") {
		t.Errorf("text format: status %d, body %s", resp.StatusCode, body)
	}
	resp, body = get(t, ts.URL+"/experiments/5?n=6000&benchmarks=gcc,fpppp&format=csv")
	if resp.StatusCode != http.StatusOK || !strings.HasPrefix(string(body), "benchmark,") {
		t.Errorf("csv format: status %d, body %s", resp.StatusCode, body)
	}

	if resp, _ := get(t, ts.URL+"/experiments/99"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown figure: status %d, want 400", resp.StatusCode)
	}
	// Unknown benchmark names must come back as a 400, not kill the
	// request inside a driver.
	resp, body = get(t, ts.URL+"/experiments/5?n=6000&benchmarks=bogus")
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "bogus") {
		t.Errorf("bogus benchmark: status %d, body %s", resp.StatusCode, body)
	}
	if resp, _ := get(t, ts.URL+"/experiments/5?n=6000&benchmarks=gcc,"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("trailing comma: status %d, want 400", resp.StatusCode)
	}
	if resp, _ := get(t, ts.URL+"/experiments/5?n=0"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("n=0: status %d, want 400", resp.StatusCode)
	}
	if resp, _ := get(t, ts.URL+"/experiments/5?format=xml&n=6000&benchmarks=gcc,fpppp"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown format: status %d, want 400", resp.StatusCode)
	}
}

// countingBackend records the batches routed through it and delegates to
// an engine, standing in for a cluster coordinator.
type countingBackend struct {
	engine  *campaign.Engine
	batches [][]campaign.RunSpec
}

func (b *countingBackend) RunAll(ctx context.Context, specs []campaign.RunSpec) ([]pipeline.Stats, error) {
	b.batches = append(b.batches, specs)
	return b.engine.RunAll(ctx, specs)
}

// TestBackendThreading: with a Backend installed, /run and /sweep execute
// through it — not the server's own engine — and return the same payloads.
func TestBackendThreading(t *testing.T) {
	srv, ts := newTestServer(t)
	backend := &countingBackend{engine: campaign.NewEngine(2)}
	srv.Backend = backend

	resp, body := post(t, ts.URL+"/run", `{"benchmark":"gcc","instructions":5000}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run via backend: %d %s", resp.StatusCode, body)
	}
	var rr RunResponse
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatal(err)
	}
	if rr.Summary.Committed != 5000 {
		t.Errorf("run summary = %+v", rr.Summary)
	}
	resp, body = post(t, ts.URL+"/sweep", `{"benchmarks":["gcc","li"],"machines":["base"],"instructions":5000}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep via backend: %d %s", resp.StatusCode, body)
	}
	if len(backend.batches) != 2 || len(backend.batches[0]) != 1 || len(backend.batches[1]) != 2 {
		t.Errorf("backend saw batches %v, want one 1-unit and one 2-unit", batchSizes(backend.batches))
	}
	if st := srv.Engine().Stats(); st.Misses != 0 {
		t.Errorf("server engine simulated %d units despite the backend: %+v", st.Misses, st)
	}
}

func batchSizes(batches [][]campaign.RunSpec) []int {
	sizes := make([]int, len(batches))
	for i, b := range batches {
		sizes[i] = len(b)
	}
	return sizes
}

func TestAuxEndpoints(t *testing.T) {
	srv, ts := newTestServer(t)
	resp, body := get(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "ok") {
		t.Errorf("healthz: %d %s", resp.StatusCode, body)
	}
	resp, body = get(t, ts.URL+"/benchmarks")
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "gcc") {
		t.Errorf("benchmarks: %d %s", resp.StatusCode, body)
	}
	post(t, ts.URL+"/run", fmt.Sprintf(`{"benchmark":%q,"instructions":5000}`, "li"))
	resp, body = get(t, ts.URL+"/stats")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats: %d", resp.StatusCode)
	}
	var st campaign.CacheStats
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Misses != 1 || st.Entries != 1 {
		t.Errorf("stats after one run = %+v", st)
	}
	if resp, _ := get(t, ts.URL+"/run"); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /run: status %d, want 405", resp.StatusCode)
	}
	_ = srv
}
