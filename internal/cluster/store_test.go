package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"maps"
	"math/rand/v2"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"galsim/internal/campaign"
	"galsim/internal/pipeline"
	"galsim/internal/telemetry"
	"galsim/internal/wal"
)

// TestJournalStoreRecoverAfterReopen: the store's three transitions survive
// a close/reopen cycle, finished campaigns compact away, and replay is
// idempotent against duplicates and stale completions.
func TestJournalStoreRecoverAfterReopen(t *testing.T) {
	dir := t.TempDir()
	specs := []campaign.RunSpec{
		campaign.RunSpec{Benchmark: "gcc", Instructions: 2_000}.Canonical(),
		campaign.RunSpec{Benchmark: "swim", Instructions: 2_000}.Canonical(),
	}
	st, err := campaign.Execute(specs[0], nil)
	if err != nil {
		t.Fatal(err)
	}

	a, err := OpenJournal(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.CampaignEnqueued("c1", "req-1", campaign.PriorityInteractive, specs); err != nil {
		t.Fatal(err)
	}
	if err := a.JobCompleted("c1", specs[0].Key(), &st); err != nil {
		t.Fatal(err)
	}
	// Duplicate completion and a completion for an unknown campaign are both
	// silent no-ops — exactly what stale worker retries look like.
	if err := a.JobCompleted("c1", specs[0].Key(), &st); err != nil {
		t.Fatal(err)
	}
	if err := a.JobCompleted("ghost", specs[0].Key(), &st); err != nil {
		t.Fatal(err)
	}
	if err := a.CampaignEnqueued("c2", "req-2", campaign.PriorityBulk, specs[:1]); err != nil {
		t.Fatal(err)
	}
	if err := a.CampaignFinished("c2", ""); err != nil {
		t.Fatal(err)
	}
	// c2's two records weigh less than c1's live enqueue and completion, so
	// finishing c2 leaves the log as it is.
	if got := a.WALStats().Compactions; got != 0 {
		t.Errorf("finish compacted a log whose dead bytes are below its live ones: %d compactions", got)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}

	b, err := OpenJournal(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	recs, err := b.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("recovered %d campaigns, want just unfinished c1", len(recs))
	}
	rec := recs[0]
	if rec.ID != "c1" || rec.RequestID != "req-1" || rec.Priority != campaign.PriorityInteractive {
		t.Errorf("recovered identity = %q/%q/%v", rec.ID, rec.RequestID, rec.Priority)
	}
	if !bytes.Equal(mustJSON(t, rec.Specs), mustJSON(t, specs)) {
		t.Error("recovered specs differ from the enqueued batch")
	}
	if len(rec.Completed) != 1 {
		t.Fatalf("recovered %d completions, want 1 (duplicates must collapse)", len(rec.Completed))
	}
	if got := rec.Completed[specs[0].Key()]; got == nil || !bytes.Equal(mustJSON(t, *got), mustJSON(t, st)) {
		t.Error("journaled stats did not round-trip")
	}
	// Finishing the last campaign resets the journal to empty.
	if err := b.CampaignFinished("c1", ""); err != nil {
		t.Fatal(err)
	}
	if recs, err := b.Recover(); err != nil || len(recs) != 0 {
		t.Errorf("after finishing everything: Recover = %d campaigns, err %v", len(recs), err)
	}
	if got := b.WALStats().Compactions; got != 1 {
		t.Errorf("finishing the last campaign did not compact the log: %d compactions", got)
	}
}

// crashStore wraps a JournalStore and simulates the coordinator process
// dying after a fixed number of journaled completions: later appends fail
// (they never reached disk) and the finish record is swallowed, leaving the
// on-disk journal exactly as a SIGKILL mid-sweep would.
type crashStore struct {
	*JournalStore
	mu          sync.Mutex
	completions int
	limit       int
}

var errSimulatedCrash = errors.New("simulated coordinator crash")

func (s *crashStore) JobCompleted(campaignID, key string, st *pipeline.Stats) error {
	s.mu.Lock()
	if s.completions >= s.limit {
		s.mu.Unlock()
		return errSimulatedCrash
	}
	s.completions++
	s.mu.Unlock()
	return s.JournalStore.JobCompleted(campaignID, key, st)
}

func (s *crashStore) CampaignFinished(campaignID, errMsg string) error {
	s.mu.Lock()
	crashed := s.completions >= s.limit
	s.mu.Unlock()
	if crashed {
		return errSimulatedCrash
	}
	return s.JournalStore.CampaignFinished(campaignID, errMsg)
}

// TestCoordinatorCrashRestartResumesSweep is the tentpole chaos test: a
// coordinator journals a sweep, "crashes" with only part of it durably
// completed, and a brand-new coordinator on the same journal resumes the
// campaign — re-running exactly the missing jobs — with merged output
// byte-identical to serial execution.
func TestCoordinatorCrashRestartResumesSweep(t *testing.T) {
	dir := t.TempDir()
	sweep := goldenSweep()
	units, serialStats, _ := serialReference(t, sweep)
	canon := make([]campaign.RunSpec, len(units))
	for i, u := range units {
		canon[i] = u.Canonical()
	}
	uniqueJobs := len(groupByKey(canon, nil))
	limit := uniqueJobs / 2 // journal only half the completions before "crashing"
	if limit == 0 {
		t.Fatal("sweep too small for a partial crash")
	}

	// Phase 1: run the sweep on a journaling coordinator whose store stops
	// persisting after `limit` completions — the in-memory run still
	// finishes, but on disk the campaign is enqueued, half done, unfinished.
	journalA, err := OpenJournal(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cs := &crashStore{JournalStore: journalA, limit: limit}
	f1 := startFleet(t, Config{Store: cs}, 2, 2)
	if _, err := f1.coord.RunAll(context.Background(), units); err != nil {
		t.Fatal(err)
	}
	f1.stop()
	if err := journalA.Close(); err != nil {
		t.Fatal(err)
	}

	// Phase 2: a fresh coordinator (fresh workers, cold caches) opens the
	// same journal and resumes.
	journalB, err := OpenJournal(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { journalB.Close() })
	f2 := startFleet(t, Config{Store: journalB}, 1, 2)
	resumed, err := f2.coord.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(resumed) != 1 {
		t.Fatalf("recovered %d campaigns, want 1", len(resumed))
	}
	r := resumed[0]
	if r.Units != len(units) {
		t.Errorf("resumed campaign has %d units, want %d", r.Units, len(units))
	}
	if r.PrefilledUnits < limit {
		t.Errorf("only %d units prefilled from the journal, want >= %d", r.PrefilledUnits, limit)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	got, err := r.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mustJSON(t, got), mustJSON(t, serialStats)) {
		t.Error("resumed sweep results differ from serial execution")
	}
	// Exactly the un-journaled jobs re-ran: the fresh worker's engine saw
	// one cache miss per missing unique spec, no more, no fewer.
	if misses := f2.engines[0].Stats().Misses; misses != uint64(uniqueJobs-limit) {
		t.Errorf("restart re-simulated %d jobs, want %d (journaled results must not re-run)",
			misses, uniqueJobs-limit)
	}
	// The resumed campaign's finish is journaled (by watchResumed) and
	// compacts the log back to empty.
	waitFor(t, func() bool {
		recs, err := journalB.Recover()
		return err == nil && len(recs) == 0
	}, "journal compaction after resumed campaign finished")
	// The WAL metric family is live on the restarted coordinator.
	var metrics strings.Builder
	if err := f2.coord.Metrics().WritePrometheus(&metrics); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"galsim_wal_recovered_campaigns_total 1",
		"galsim_wal_replayed_records",
		"galsim_wal_compactions",
	} {
		if !strings.Contains(metrics.String(), want) {
			t.Errorf("metrics exposition missing %q", want)
		}
	}
}

// TestSubmitBoundedQueueRejects: a batch that would overflow MaxQueuedJobs
// is rejected atomically with campaign.ErrBackendBusy — nothing enqueued,
// nothing journaled — and the rejection metric increments.
func TestSubmitBoundedQueueRejects(t *testing.T) {
	f := startFleet(t, Config{MaxQueuedJobs: 2}, 0, 0)
	specs := []campaign.RunSpec{
		{Benchmark: "gcc", Instructions: 2_000},
		{Benchmark: "swim", Instructions: 2_000},
		{Benchmark: "perl", Instructions: 2_000},
	}
	_, err := f.coord.RunAll(context.Background(), specs)
	if !errors.Is(err, campaign.ErrBackendBusy) {
		t.Fatalf("overflow error = %v, want ErrBackendBusy", err)
	}
	if st := f.coord.Stats(); st.JobsPending != 0 {
		t.Errorf("rejected batch left %d jobs queued", st.JobsPending)
	}
	// A batch that fits is accepted even while the limit exists.
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := f.coord.RunAll(ctx, specs[:2])
		done <- err
	}()
	waitFor(t, func() bool { return f.coord.Stats().JobsPending == 2 }, "in-limit batch enqueued")
	cancel()
	<-done
}

// TestPriorityLaneLeasesInteractiveFirst: with both lanes populated, a
// worker's next lease drains every interactive job before any bulk job.
func TestPriorityLaneLeasesInteractiveFirst(t *testing.T) {
	c := NewCoordinator(Config{})
	bulk := campaign.RunSpec{Benchmark: "gcc", Instructions: 2_000}.Canonical()
	inter := campaign.RunSpec{Benchmark: "swim", Instructions: 2_000}.Canonical()
	if _, err := c.submit([]campaign.RunSpec{bulk}, nil, "", telemetry.TraceContext{}, nil, campaign.PriorityBulk); err != nil {
		t.Fatal(err)
	}
	if _, err := c.submit([]campaign.RunSpec{inter}, nil, "", telemetry.TraceContext{}, nil, campaign.PriorityInteractive); err != nil {
		t.Fatal(err)
	}
	jobs, _ := c.tryLease("w1", 2, campaign.CacheStats{})
	if len(jobs) != 2 {
		t.Fatalf("leased %d jobs, want 2", len(jobs))
	}
	if jobs[0].Spec.Key() != inter.Key() {
		t.Errorf("first lease = %s, want the interactive job despite bulk arriving first",
			jobs[0].Spec.WorkloadName())
	}
	if jobs[1].Spec.Key() != bulk.Key() {
		t.Errorf("second lease = %s, want the bulk job", jobs[1].Spec.WorkloadName())
	}
}

// modelCampaign is one unfinished campaign as TestJournalMatchesModel's
// model of the store's rules sees it.
type modelCampaign struct {
	req   string
	specs int
	done  map[string]uint64 // Committed of each completion's stats
	ckpt  map[string]string // latest checkpoint per unit not yet done
}

func (m *modelCampaign) String() string {
	if m == nil {
		return "absent"
	}
	return fmt.Sprintf("%q/%d specs/%d done/%d ckpt", m.req, m.specs, len(m.done), len(m.ckpt))
}

// TestJournalMatchesModel: over seeded random sequences of enqueues,
// completions, checkpoints and finishes, with the journal closed and
// reopened at random points, Recover equals a plain model of the store's
// rules, and after the last finish the journal holds nothing.
func TestJournalMatchesModel(t *testing.T) {
	specs := []campaign.RunSpec{
		campaign.RunSpec{Benchmark: "gcc", Instructions: 2_000}.Canonical(),
		campaign.RunSpec{Benchmark: "swim", Instructions: 2_000}.Canonical(),
		campaign.RunSpec{Benchmark: "perl", Instructions: 2_000}.Canonical(),
	}
	opt := wal.Options{SegmentBytes: 8 << 10, SyncEvery: -1}
	var compactions uint64
	for seed := uint64(1); seed <= 24; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0))
		dir := t.TempDir()
		s, err := OpenJournal(dir, opt)
		if err != nil {
			t.Fatal(err)
		}
		model := map[string]*modelCampaign{}
		check := func(step int) {
			t.Helper()
			recs, err := s.Recover()
			if err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			if len(recs) != len(model) {
				t.Fatalf("seed %d step %d: recovered %d campaigns, model has %d", seed, step, len(recs), len(model))
			}
			for _, rc := range recs {
				m := model[rc.ID]
				if m == nil || rc.RequestID != m.req || len(rc.Specs) != m.specs ||
					len(rc.Completed) != len(m.done) || len(rc.Checkpoints) != len(m.ckpt) {
					t.Fatalf("seed %d step %d: campaign %s recovered as %q/%d specs/%d done/%d ckpt, model %v",
						seed, step, rc.ID, rc.RequestID, len(rc.Specs), len(rc.Completed), len(rc.Checkpoints), m)
				}
				for k, v := range m.done {
					if st := rc.Completed[k]; st == nil || st.Committed != v {
						t.Fatalf("seed %d step %d: campaign %s unit %s completion %+v, want committed %d", seed, step, rc.ID, k, st, v)
					}
				}
				for k, v := range m.ckpt {
					if got := string(rc.Checkpoints[k]); got != v {
						t.Fatalf("seed %d step %d: campaign %s unit %s checkpoint of %d bytes, want %d", seed, step, rc.ID, k, len(got), len(v))
					}
				}
			}
		}
		for step := 0; step < 160; step++ {
			id := fmt.Sprintf("c%d", rng.IntN(5))
			key := fmt.Sprintf("k%d", rng.IntN(4))
			m := model[id]
			var err error
			switch op := rng.IntN(10); {
			case op < 2:
				n := 1 + rng.IntN(len(specs))
				req := fmt.Sprintf("req-%d", step)
				err = s.CampaignEnqueued(id, req, campaign.PriorityBulk, specs[:n])
				if m == nil {
					model[id] = &modelCampaign{req: req, specs: n, done: map[string]uint64{}, ckpt: map[string]string{}}
				}
			case op < 5:
				v := rng.Uint64N(1 << 20)
				err = s.JobCompleted(id, key, &pipeline.Stats{Benchmark: "gcc", Committed: v})
				if m != nil {
					if _, dup := m.done[key]; !dup {
						m.done[key] = v
					}
					delete(m.ckpt, key)
				}
			case op < 8:
				snap := strings.Repeat(string(rune('a'+rng.IntN(26))), 1+rng.IntN(3000))
				err = s.JobCheckpoint(id, key, []byte(snap))
				if m != nil {
					if _, done := m.done[key]; !done {
						m.ckpt[key] = snap
					}
				}
			default:
				err = s.CampaignFinished(id, "")
				delete(model, id)
			}
			if err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			if rng.IntN(16) == 0 {
				compactions += s.WALStats().Compactions
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
				if s, err = OpenJournal(dir, opt); err != nil {
					t.Fatalf("seed %d step %d: reopening: %v", seed, step, err)
				}
			}
			check(step)
		}
		for _, id := range slices.Sorted(maps.Keys(model)) {
			if err := s.CampaignFinished(id, ""); err != nil {
				t.Fatal(err)
			}
			delete(model, id)
		}
		check(-1)
		compactions += s.WALStats().Compactions
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		segs, err := filepath.Glob(filepath.Join(dir, "*.wal"))
		if err != nil {
			t.Fatal(err)
		}
		for _, seg := range segs {
			if fi, err := os.Stat(seg); err != nil || fi.Size() != 0 {
				t.Fatalf("seed %d: after the last finish segment %s holds %d bytes (err %v)", seed, seg, fi.Size(), err)
			}
		}
	}
	if compactions == 0 {
		t.Fatal("no sequence compacted its journal")
	}
}

// TestCompactedJournalRecordsCarryVersion: a log compacted while a campaign
// is live holds that campaign's records as they were appended, each with
// the current record version.
func TestCompactedJournalRecordsCarryVersion(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenJournal(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	spec := campaign.RunSpec{Benchmark: "gcc", Instructions: 2_000}.Canonical()
	many := slices.Repeat([]campaign.RunSpec{spec}, 40)
	for _, err := range []error{
		s.CampaignEnqueued("c1", "req-1", campaign.PriorityBulk, many[:1]),
		s.CampaignEnqueued("c2", "req-2", campaign.PriorityBulk, many),
		s.JobCompleted("c1", "k1", &pipeline.Stats{Benchmark: "gcc", Committed: 7}),
		s.JobCheckpoint("c1", "k2", []byte("snap")),
		s.CampaignFinished("c2", ""),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := s.WALStats().Compactions; got != 1 {
		t.Fatalf("finishing the heavier campaign made %d compactions, want 1", got)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	l, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var types []string
	if err := l.Replay(func(p []byte) error {
		rec, err := decodeRecord(p)
		if err != nil {
			return err
		}
		if rec.V != walRecordVersion {
			t.Errorf("compacted %s record carries version %d, want %d", rec.Type, rec.V, walRecordVersion)
		}
		types = append(types, rec.Type)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if want := []string{"enqueue", "done", "ckpt"}; !slices.Equal(types, want) {
		t.Errorf("compacted log holds %v, want %v", types, want)
	}
}

// TestCheckpointRecordEncoding: the hand-built checkpoint record is the
// payload json.Marshal writes for it, escaping included.
func TestCheckpointRecordEncoding(t *testing.T) {
	for _, rec := range []walRecord{
		{V: walRecordVersion, Type: "ckpt", ID: "camp-1", Key: "abc", Snap: []byte("GSNP\x00\x01")},
		{V: walRecordVersion, Type: "ckpt", ID: `a"<&>\u2028`, Key: "k\n\x01é", Snap: bytes.Repeat([]byte{0xff, 0x00, 0x7f}, 1001)},
		{V: walRecordVersion, Type: "ckpt", ID: "c", Key: "", Snap: []byte("x")},
		{V: walRecordVersion, Type: "ckpt", ID: "c", Key: "k"},
	} {
		got, err := encodeRecord(rec)
		if err != nil {
			t.Fatal(err)
		}
		if want := mustJSON(t, rec); !bytes.Equal(got, want) {
			t.Errorf("encodeRecord = %s, want %s", got, want)
		}
	}
}
