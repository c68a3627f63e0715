package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"bankaware/internal/atomicio"
	"bankaware/internal/experiments"
	"bankaware/internal/montecarlo"
	"bankaware/internal/runner"
)

// mcSpec builds a small deterministic Monte Carlo job. Tests that need
// several distinct jobs must vary trials or seed: priority and label are
// execution metadata, excluded from the spec hash, so two mcSpecs differing
// only there are the same content-addressed job.
func mcSpec(trials, priority int) JobSpec {
	return JobSpec{
		Kind: KindMonteCarlo, Priority: priority, Seed: 2009,
		MonteCarlo: &MonteCarloSpec{Trials: trials},
	}
}

// directMonteCarloBytes runs the same campaign through the library directly
// and renders its report — the byte-identity reference.
func directMonteCarloBytes(t *testing.T, trials int, seed uint64) []byte {
	t.Helper()
	cfg := montecarlo.DefaultConfig()
	cfg.Trials = trials
	cfg.Seed = seed
	res, err := montecarlo.RunContext(context.Background(), cfg, montecarlo.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.Report().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// waitState polls until the job reaches the wanted state.
func waitState(t *testing.T, s *Service, id, state string) JobRecord {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		rec, ok := s.Store().Get(id)
		if !ok {
			t.Fatalf("job %s vanished", id)
		}
		if rec.State == state {
			return rec
		}
		if rec.Terminal() {
			t.Fatalf("job %s reached %s (error %q), want %s", id, rec.State, rec.Error, state)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %s", id, state)
	return JobRecord{}
}

func TestSubmitRunsToByteIdenticalReport(t *testing.T) {
	svc, err := New(Config{Dir: t.TempDir(), Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Start(); err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	rec, err := svc.Submit(mcSpec(40, 0))
	if err != nil {
		t.Fatal(err)
	}
	done := waitState(t, svc, rec.ID, StateDone)
	if done.Attempts != 1 {
		t.Fatalf("attempts = %d, want 1", done.Attempts)
	}
	got, err := svc.Store().ReportBytes(rec.ID)
	if err != nil {
		t.Fatal(err)
	}
	want := directMonteCarloBytes(t, 40, 2009)
	if !bytes.Equal(got, want) {
		t.Fatalf("service report differs from direct run:\nservice: %.200s\ndirect:  %.200s", got, want)
	}
}

// TestRetiredSimWorkersField pins the wire contract of the simWorkers
// field that daemons once accepted as an execution knob: a new submission
// naming it gets the strict decoder's 400, and a job-log line written
// while the field existed still opens with the spec hash it was stored
// under, so the job keeps serving as that spec's cache entry.
func TestRetiredSimWorkersField(t *testing.T) {
	_, ts := startHTTP(t, Config{}, false)
	if resp, _ := postJob(t, ts, `{"kind":"set","simWorkers":4,"set":{"set":1}}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("POST naming simWorkers -> %d, want 400", resp.StatusCode)
	}

	// TestSpecHashPinned's hash of {"kind":"set","set":{"set":1}}, which a
	// daemon of that time computed with simWorkers left out.
	const hash = "893233914fe22a0b75c0f0a29cfc6cc3da59f5d4227ab6a7d98e0fdeaaba74eb"
	dir := t.TempDir()
	jobLog, err := atomicio.OpenLog(filepath.Join(dir, jobLogName), func([]byte) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	line := `{"id":"job-000001","seq":1,"spec":{"kind":"set","simWorkers":4,"set":{"set":1}},"state":"queued","specHash":"` + hash +
		`","submittedAt":"2026-01-01T00:00:00Z","startedAt":"0001-01-01T00:00:00Z","finishedAt":"0001-01-01T00:00:00Z"}`
	if err := jobLog.Append([][]byte{[]byte(line)}, true); err != nil {
		t.Fatal(err)
	}
	jobLog.Close()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if rec, ok := st.Get("job-000001"); !ok || rec.lost() || rec.State != StateQueued || rec.SpecHash != hash {
		t.Fatalf("stored simWorkers record reopened as %+v (found %v), want queued with spec hash %s", rec, ok, hash)
	}
	if rec, ok := st.DedupLookup("spec:" + hash); !ok || rec.ID != "job-000001" {
		t.Fatalf("spec-hash dedup -> %+v (found %v), want job-000001", rec, ok)
	}
}

// TestExperimentsJobServiceVsDirect serves an observed, seeded Figs. 8/9
// campaign on a plain daemon and on a coordinator whose 5-unit shards
// straddle Table III set boundaries: both stored reports must be
// byte-identical to the direct library run.
func TestExperimentsJobServiceVsDirect(t *testing.T) {
	if testing.Short() {
		t.Skip("full Figs. 8/9 campaign in -short mode")
	}
	const budget, seed = 20_000, 7
	res, err := experiments.RunFig8Fig9Context(context.Background(), experiments.ScaleModel, budget,
		experiments.Options{Observe: true, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := res.Report().WriteJSON(&want); err != nil {
		t.Fatal(err)
	}
	spec := JobSpec{Kind: KindExperiments, Seed: seed, Observe: true, Experiments: &ExperimentsSpec{Instructions: budget}}

	serve := func(t *testing.T, svc *Service) {
		t.Helper()
		rec, err := svc.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, svc, rec.ID, StateDone)
		if got := reportBytes(t, svc, rec.ID); !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("served experiments report differs from the direct library run (%d vs %d bytes)", len(got), want.Len())
		}
	}
	t.Run("single-node", func(t *testing.T) {
		svc, _ := startHTTP(t, Config{Workers: 2}, true)
		serve(t, svc)
	})
	t.Run("coordinator", func(t *testing.T) {
		svc, ts := startHTTP(t, Config{Coordinator: true, LeaseTTL: 5 * time.Second, ShardUnits: 5}, true)
		startWorker(t, ts, "w0", nil)
		startWorker(t, ts, "w1", nil)
		serve(t, svc)
	})
}

func TestQueueBackpressure(t *testing.T) {
	// No Start: nothing dequeues, so the queue fills deterministically.
	svc, err := New(Config{Dir: t.TempDir(), QueueCap: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Submit(mcSpec(10, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Submit(mcSpec(11, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Submit(mcSpec(12, 0)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third submit: %v, want ErrQueueFull", err)
	}
	// The rejected submission left no record behind.
	if n := len(svc.Store().Jobs()); n != 2 {
		t.Fatalf("%d records after rejection, want 2", n)
	}
}

func TestSubmitWhileDraining(t *testing.T) {
	svc, err := New(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Start(); err != nil {
		t.Fatal(err)
	}
	svc.Drain(context.Background())
	if _, err := svc.Submit(mcSpec(10, 0)); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit while draining: %v, want ErrDraining", err)
	}
	svc.Close()
}

func TestCancelQueuedJob(t *testing.T) {
	svc, err := New(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := svc.Submit(mcSpec(10, 0))
	if err != nil {
		t.Fatal(err)
	}
	got, ok := svc.Cancel(rec.ID)
	if !ok || got.State != StateCanceled {
		t.Fatalf("cancel: ok=%v state=%s, want canceled", ok, got.State)
	}
	if _, ok := svc.Cancel(rec.ID); ok {
		t.Fatal("second cancel succeeded, want conflict")
	}
	// The terminal state survived to disk.
	reopened, err := OpenStore(svc.Store().Dir())
	if err != nil {
		t.Fatal(err)
	}
	if r, _ := reopened.Get(rec.ID); r.State != StateCanceled {
		t.Fatalf("persisted state %s, want canceled", r.State)
	}
}

func TestPriorityOrdersExecution(t *testing.T) {
	dir := t.TempDir()
	var mu sync.Mutex
	var order []string
	seen := map[string]bool{}
	svc, err := New(Config{
		Dir: dir, Jobs: 1, Workers: 1,
		onProgress: func(id string, p runner.Progress) {
			mu.Lock()
			if !seen[id] {
				seen[id] = true
				order = append(order, id)
			}
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Submit before Start so all three are queued when execution begins.
	low, err := svc.Submit(mcSpec(5, 0))
	if err != nil {
		t.Fatal(err)
	}
	high1, err := svc.Submit(mcSpec(6, 9))
	if err != nil {
		t.Fatal(err)
	}
	high2, err := svc.Submit(mcSpec(7, 9))
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Start(); err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	waitState(t, svc, low.ID, StateDone)
	waitState(t, svc, high1.ID, StateDone)
	waitState(t, svc, high2.ID, StateDone)

	mu.Lock()
	defer mu.Unlock()
	want := []string{high1.ID, high2.ID, low.ID}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("execution order %v, want %v (priority desc, then submission order)", order, want)
	}
}

func TestDrainCheckpointsAndResumeIsByteIdentical(t *testing.T) {
	dir := t.TempDir()
	const trials = 200

	// Throttle trial completion so the drain reliably lands mid-campaign,
	// and signal once enough trials finished to make the checkpoint
	// meaningful.
	enough := make(chan struct{})
	var once sync.Once
	svc, err := New(Config{
		Dir: dir, Workers: 2,
		onProgress: func(id string, p runner.Progress) {
			if p.Kind != runner.JobDone {
				return
			}
			time.Sleep(2 * time.Millisecond)
			if p.Done >= 5 {
				once.Do(func() { close(enough) })
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Start(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(fmt.Sprintf(`{"kind":"montecarlo","seed":2009,"montecarlo":{"trials":%d}}`, trials)))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit -> %d, want 202", resp.StatusCode)
	}
	var rec JobRecord
	if err := json.NewDecoder(resp.Body).Decode(&rec); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	select {
	case <-enough:
	case <-time.After(60 * time.Second):
		t.Fatal("campaign never reached 5 completed trials")
	}
	// Drain with an expired grace: the in-flight job is interrupted,
	// checkpoints its journal and returns to the queue.
	expired, cancel := context.WithCancel(context.Background())
	cancel()
	svc.Drain(expired)
	ts.Close()
	svc.Close()

	after, ok := svc.Store().Get(rec.ID)
	if !ok || after.State != StateQueued {
		t.Fatalf("state after drain = %s, want queued (re-enqueue on restart)", after.State)
	}
	journal, err := runner.OpenJournal(svc.Store().JournalPath(rec.ID))
	if err != nil {
		t.Fatal(err)
	}
	checkpointed := journal.Len()
	journal.Close()
	if checkpointed == 0 {
		t.Fatal("no trials checkpointed before drain")
	}
	t.Logf("drained with %d/%d trials checkpointed", checkpointed, trials)

	// Restart: a fresh daemon over the same store resumes the job from its
	// journal and finishes it.
	svc2, err := New(Config{Dir: dir, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := svc2.Start(); err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()
	done := waitState(t, svc2, rec.ID, StateDone)
	if done.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2 (one interrupted, one resumed)", done.Attempts)
	}
	// Fetch over HTTP like a client would: the served bytes must match an
	// uninterrupted direct library run exactly.
	ts2 := httptest.NewServer(svc2.Handler())
	defer ts2.Close()
	resp, err = http.Get(ts2.URL + "/v1/jobs/" + rec.ID + "/report")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	want := directMonteCarloBytes(t, trials, 2009)
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatal("resumed report differs from an uninterrupted direct run")
	}
}

func TestCancelRunningJob(t *testing.T) {
	// Throttle every trial so the job is reliably mid-flight when cancelled.
	started := make(chan struct{})
	var once sync.Once
	svc, err := New(Config{
		Dir: dirForCancel(t), Workers: 1,
		onProgress: func(id string, p runner.Progress) {
			once.Do(func() { close(started) })
			time.Sleep(time.Millisecond)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Start(); err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	rec, err := svc.Submit(mcSpec(500, 0))
	if err != nil {
		t.Fatal(err)
	}
	<-started
	if _, ok := svc.Cancel(rec.ID); !ok {
		t.Fatal("cancel of a running job refused")
	}
	got := waitState(t, svc, rec.ID, StateCanceled)
	if got.State != StateCanceled {
		t.Fatalf("state %s, want canceled", got.State)
	}
}

func dirForCancel(t *testing.T) string { return t.TempDir() }

func TestJobTimeoutFails(t *testing.T) {
	svc, err := New(Config{
		Dir: t.TempDir(), Workers: 1,
		// Keep each trial slow enough that a 1 ms deadline always lands.
		onProgress: func(id string, p runner.Progress) { time.Sleep(time.Millisecond) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Start(); err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	spec := mcSpec(500, 0)
	spec.TimeoutMS = 1
	rec, err := svc.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	got := waitState(t, svc, rec.ID, StateFailed)
	if got.Error == "" {
		t.Fatal("failed job has no error message")
	}
}

// drainMidRun runs spec on a single-node daemon over dir until done of its
// units have finished, drains the daemon with an expired grace and closes
// it. Completions are throttled so the drain lands mid-campaign. It returns
// the closed daemon's store and the drained job, back in the queue.
func drainMidRun(t *testing.T, dir string, spec JobSpec, done int) (*Store, JobRecord) {
	t.Helper()
	enough := make(chan struct{})
	var once sync.Once
	svc, err := New(Config{
		Dir: dir, Workers: 2,
		onProgress: func(id string, p runner.Progress) {
			if p.Kind != runner.JobDone {
				return
			}
			time.Sleep(2 * time.Millisecond)
			if p.Done >= done {
				once.Do(func() { close(enough) })
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Start(); err != nil {
		t.Fatal(err)
	}
	rec, err := svc.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-enough:
	case <-time.After(60 * time.Second):
		t.Fatalf("the job never finished %d units", done)
	}
	expired, cancel := context.WithCancel(context.Background())
	cancel()
	svc.Drain(expired)
	svc.Close()
	if rec, _ = svc.Store().Get(rec.ID); rec.State != StateQueued {
		t.Fatalf("state after drain = %s, want queued", rec.State)
	}
	return svc.Store(), rec
}

// TestDrainedExperimentsJobResumesFromJournal drains a single-node
// Figs. 8/9 job mid-run. The drained job keeps its unit journal; the
// restarted daemon restores every journaled unit without running it,
// computes only the rest, and serves the direct library run's bytes.
func TestDrainedExperimentsJobResumesFromJournal(t *testing.T) {
	if testing.Short() {
		t.Skip("detailed Figs. 8/9 campaign in -short mode")
	}
	const budget, seed = 20_000, 7
	res, err := experiments.RunFig8Fig9Context(context.Background(), experiments.ScaleModel, budget,
		experiments.Options{Observe: true, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := res.Report().WriteJSON(&want); err != nil {
		t.Fatal(err)
	}
	spec := JobSpec{Kind: KindExperiments, Seed: seed, Observe: true, Experiments: &ExperimentsSpec{Instructions: budget}}

	dir := t.TempDir()
	st, rec := drainMidRun(t, dir, spec, 6)
	journaled := journaledOnDisk(t, st.JournalPath(rec.ID))
	if len(journaled) < 6 || len(journaled) == experiments.CampaignUnits {
		t.Fatalf("drained job journaled %d of %d units, want a part", len(journaled), experiments.CampaignUnits)
	}
	t.Logf("drained with %d/%d units journaled", len(journaled), experiments.CampaignUnits)

	// A restored unit reports done with no wall time; a computed one ran.
	var mu sync.Mutex
	restored, computed := map[int]bool{}, map[int]bool{}
	svc2, err := New(Config{
		Dir: dir, Workers: 2,
		onProgress: func(id string, p runner.Progress) {
			if p.Kind != runner.JobDone {
				return
			}
			mu.Lock()
			defer mu.Unlock()
			if p.Elapsed == 0 {
				restored[p.Job] = true
			} else {
				computed[p.Job] = true
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := svc2.Start(); err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()
	if done := waitState(t, svc2, rec.ID, StateDone); done.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2 (one drained, one resumed)", done.Attempts)
	}
	mu.Lock()
	defer mu.Unlock()
	for u := 0; u < experiments.CampaignUnits; u++ {
		if restored[u] != journaled[u] || computed[u] == journaled[u] {
			t.Errorf("unit %d: journaled %v, restored %v, computed %v", u, journaled[u], restored[u], computed[u])
		}
	}
	if got := reportBytes(t, svc2, rec.ID); !bytes.Equal(got, want.Bytes()) {
		t.Fatal("resumed experiments report differs from the direct library run")
	}
}

// noUnitState fails when id left its unit journal behind or the store
// holds a shards dir: a job's unit journal is its only state on disk.
func noUnitState(t *testing.T, svc *Service, id string) {
	t.Helper()
	for _, path := range []string{svc.Store().JournalPath(id), filepath.Join(svc.Store().dir, "shards")} {
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Errorf("terminal job %s left %s behind (%v)", id, path, err)
		}
	}
}

// TestTerminalJobsDropUnitState pins that a single-node daemon keeps a
// job's unit journal across a drain and drops it at every terminal state:
// a drained job withdrawn while queued, a canceled running job, and a job
// that hits its deadline.
func TestTerminalJobsDropUnitState(t *testing.T) {
	dir := t.TempDir()
	st, drained := drainMidRun(t, dir, mcSpec(500, 0), 5)
	if len(journaledOnDisk(t, st.JournalPath(drained.ID))) == 0 {
		t.Fatal("the drained job dropped its unit journal")
	}

	// One executor: the running job holds it, so the drained job stays
	// queued until it is withdrawn.
	running := make(chan struct{})
	var once sync.Once
	svc2, err := New(Config{Dir: dir, Jobs: 1, Workers: 1, onProgress: func(id string, p runner.Progress) {
		if p.Kind == runner.JobDone {
			once.Do(func() { close(running) })
		}
		time.Sleep(time.Millisecond)
	}})
	if err != nil {
		t.Fatal(err)
	}
	first, err := svc2.Submit(mcSpec(501, 9))
	if err != nil {
		t.Fatal(err)
	}
	if err := svc2.Start(); err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()
	select {
	case <-running:
	case <-time.After(30 * time.Second):
		t.Fatal("the high-priority job never finished a unit")
	}
	if got, ok := svc2.Cancel(drained.ID); !ok || got.State != StateCanceled {
		t.Fatalf("withdrawing the drained job: ok=%v state=%s", ok, got.State)
	}
	noUnitState(t, svc2, drained.ID)
	if len(journaledOnDisk(t, svc2.Store().JournalPath(first.ID))) == 0 {
		t.Fatal("the running job journaled nothing before its cancel")
	}
	if _, ok := svc2.Cancel(first.ID); !ok {
		t.Fatal("cancel of the running job refused")
	}
	waitState(t, svc2, first.ID, StateCanceled)
	noUnitState(t, svc2, first.ID)

	timed := mcSpec(502, 0)
	timed.TimeoutMS = 50
	rec, err := svc2.Submit(timed)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, svc2, rec.ID, StateFailed)
	noUnitState(t, svc2, rec.ID)
}
