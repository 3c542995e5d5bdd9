package cluster

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"galsim/internal/campaign"
	"galsim/internal/httpjson"
	"galsim/internal/pipeline"
)

// FuzzJobCodec fuzzes the job/result wire decoding the worker and the
// coordinator run: decoding arbitrary bytes must never panic, and anything
// that decodes (and, for a result, passes the stats-or-error rule) must
// round-trip to stable bytes (a field that failed to survive the trip — a
// missing tag, an unexported field — would silently change simulation
// results or drop them on the floor).
func FuzzJobCodec(f *testing.F) {
	seedJob := Job{
		ID: 42,
		Spec: campaign.RunSpec{
			Benchmark:    "gcc",
			Machine:      "gals",
			Instructions: 6_000,
			Slowdowns:    map[string]float64{"fp": 3, "all": 1.5},
			DynamicDVFS:  true,
		}.Canonical(),
	}
	st := pipeline.Stats{Committed: 6_000, Fetched: 7_000}
	for _, v := range []any{seedJob, JobResult{JobID: 42, Stats: &st}, JobResult{JobID: 7, Error: "worker on fire"}} {
		b, err := json.Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(`{`))
	f.Add([]byte(`{"id":1}`))
	f.Add([]byte(`{"job_id":1,"stats":{"Committed":5}}`))
	f.Add([]byte(`{"id":1,"spec":{"benchmark":"gcc"},"extra":true}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{"id":1}{"id":2}`))
	f.Add([]byte(`{"id":1} }`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var j Job
		if httpjson.DecodeStrict(bytes.NewReader(data), &j) == nil {
			roundTrip(t, data, j, func(Job) error { return nil })
		}
		var r JobResult
		if httpjson.DecodeStrict(bytes.NewReader(data), &r) == nil && r.validate() == nil {
			roundTrip(t, data, r, JobResult.validate)
		}
	})
}

// roundTrip encodes v, decodes and validates it the way its receiver does,
// and requires the second encoding to equal the first.
func roundTrip[T any](t *testing.T, data []byte, v T, validate func(T) error) {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("encoding %T decoded from %q: %v", v, data, err)
	}
	var v2 T
	if err := httpjson.DecodeStrict(bytes.NewReader(b), &v2); err != nil {
		t.Fatalf("%T round-trip failed to decode: %v\noriginal: %q\nencoded: %q", v, err, data, b)
	}
	if err := validate(v2); err != nil {
		t.Fatalf("%T round-trip failed to validate: %v\nencoded: %q", v, err, b)
	}
	if b2, _ := json.Marshal(v2); !bytes.Equal(b, b2) {
		t.Fatalf("%T round-trip not stable:\nfirst:  %s\nsecond: %s", v, b, b2)
	}
}

// TestJobCodecRejectsMalformed pins the strictness the fuzz target relies
// on: unknown fields, trailing data, and stats+error both set are all
// rejected, not silently accepted.
func TestJobCodecRejectsMalformed(t *testing.T) {
	for _, data := range []string{
		`{"id":1,"spec":{"benchmark":"gcc"},"bogus":1}`,
		`{"id":1}{"id":2}`,
		`{"id":1} }`,
		`{"id":1} ]`,
	} {
		var j Job
		if err := httpjson.DecodeStrict(strings.NewReader(data), &j); err == nil {
			t.Errorf("job %s accepted", data)
		}
	}
	var r JobResult
	if err := httpjson.DecodeStrict(strings.NewReader(`{"job_id":1,"stats":{"Committed":1},"error":"x"}`), &r); err != nil {
		t.Fatal(err)
	}
	if r.validate() == nil {
		t.Error("result with both stats and error accepted")
	}
	j := Job{ID: 9, Spec: campaign.RunSpec{Benchmark: "swim"}.Canonical()}
	b, err := json.Marshal(j)
	if err != nil {
		t.Fatal(err)
	}
	var got Job
	if err := httpjson.DecodeStrict(bytes.NewReader(b), &got); err != nil {
		t.Fatal(err)
	}
	if got.ID != 9 || got.Spec.Benchmark != "swim" || got.Spec.Key() != j.Spec.Key() {
		t.Errorf("round-trip changed the job: %+v", got)
	}
}
