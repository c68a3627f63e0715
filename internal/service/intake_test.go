package service

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bankaware/internal/metrics"
	"bankaware/internal/runner"
)

// TestGroupCommitDurability submits many distinct jobs concurrently and
// requires every acked one to survive a cold reopen of the store — the
// group-commit contract — while making no more job-log commits, one fsync
// each, than submissions (the point of sharing them).
func TestGroupCommitDurability(t *testing.T) {
	dir := t.TempDir()
	svc, err := New(Config{Dir: dir, QueueCap: 1024})
	if err != nil {
		t.Fatal(err)
	}
	const n = 64
	var wg sync.WaitGroup
	ids := make([]string, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			spec := mcSpec(10, 0)
			spec.Seed = uint64(i + 1)
			rec, err := svc.Submit(spec)
			ids[i], errs[i] = rec.ID, err
		}(i)
	}
	wg.Wait()
	commits := int(svc.Registry().Snapshot()["service.job_log_commits"])
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	if commits < 1 || commits > n {
		t.Fatalf("%d job-log commits for %d submits", commits, n)
	}
	t.Logf("%d submits committed in %d commits", n, commits)

	reopened, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	for i, id := range ids {
		rec, ok := reopened.Get(id)
		if !ok {
			t.Fatalf("acked job %s (submit %d) missing after reopen", id, i)
		}
		if rec.State != StateQueued {
			t.Fatalf("job %s reopened as %s, want queued", id, rec.State)
		}
	}
}

// TestConcurrentIdenticalSubmitsCoalesce is the dedup race test: N
// goroutines submit the same spec at once and must get N consistent acks
// for exactly one job — one record, one execution.
func TestConcurrentIdenticalSubmitsCoalesce(t *testing.T) {
	svc, err := New(Config{Dir: t.TempDir(), Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Start(); err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	const n = 16
	var wg sync.WaitGroup
	recs := make([]JobRecord, n)
	hits := make([]bool, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rec, hit, err := svc.SubmitDedup(mcSpec(30, 0), "")
			if err != nil {
				t.Errorf("submit %d: %v", i, err)
				return
			}
			recs[i], hits[i] = rec, hit
		}(i)
	}
	wg.Wait()
	misses := 0
	for i := 1; i < n; i++ {
		if recs[i].ID != recs[0].ID {
			t.Fatalf("submit %d acked job %s, submit 0 acked %s — duplicates split", i, recs[i].ID, recs[0].ID)
		}
	}
	for _, hit := range hits {
		if !hit {
			misses++
		}
	}
	if misses != 1 {
		t.Fatalf("%d cache misses across %d identical submits, want exactly 1", misses, n)
	}
	if jobs := svc.Store().Jobs(); len(jobs) != 1 {
		t.Fatalf("%d job records, want 1", len(jobs))
	}
	done := waitState(t, svc, recs[0].ID, StateDone)
	if done.Attempts != 1 {
		t.Fatalf("job ran %d times, want 1", done.Attempts)
	}
}

// TestIntakeCrashBeforeCommit injects a failure before the batch fsync:
// the submission must error and leave nothing behind — no acked job, no
// record after a restart.
func TestIntakeCrashBeforeCommit(t *testing.T) {
	dir := t.TempDir()
	boom := errors.New("injected power loss")
	var arm atomic.Bool
	svc, err := New(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	svc.store.crashAt = func(durable bool) error {
		if !durable && arm.Load() {
			return boom
		}
		return nil
	}
	ok, err := svc.Submit(mcSpec(10, 0))
	if err != nil {
		t.Fatal(err)
	}
	arm.Store(true)
	if _, err := svc.Submit(mcSpec(11, 0)); !errors.Is(err, boom) {
		t.Fatalf("submit across failing commit: %v, want injected error", err)
	}
	svc.Close()

	reopened, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if _, found := reopened.Get(ok.ID); !found {
		t.Fatalf("pre-crash job %s lost", ok.ID)
	}
	if n := len(reopened.Jobs()); n != 1 {
		t.Fatalf("%d records after failed commit, want only the pre-crash one", n)
	}
}

// TestIntakeCrashAfterCommit injects a failure after the batch fsync: the
// client sees an error (no ack), but the records are durable — a restarted
// daemon recovers them as queued and runs them. This is the at-least-once
// half of the contract; spec-hash dedup folds the client's retry onto the
// recovered job.
func TestIntakeCrashAfterCommit(t *testing.T) {
	dir := t.TempDir()
	boom := errors.New("injected crash after fsync")
	var arm atomic.Bool
	svc, err := New(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	svc.store.crashAt = func(durable bool) error {
		if durable && arm.Load() {
			return boom
		}
		return nil
	}
	arm.Store(true)
	spec := mcSpec(10, 0)
	if _, err := svc.Submit(spec); !errors.Is(err, boom) {
		t.Fatalf("submit across failing post-commit: %v, want injected error", err)
	}
	svc.Close()

	svc2, err := New(Config{Dir: dir, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	jobs := svc2.Store().Jobs()
	if len(jobs) != 1 || jobs[0].State != StateQueued {
		t.Fatalf("recovered jobs = %+v, want one queued record", jobs)
	}
	// A client retry of the unacked submission coalesces onto the recovered
	// job instead of running it twice.
	rec, hit, err := svc2.SubmitDedup(spec, "")
	if err != nil {
		t.Fatal(err)
	}
	if !hit || rec.ID != jobs[0].ID {
		t.Fatalf("retry -> hit=%v id=%s, want dedup onto recovered %s", hit, rec.ID, jobs[0].ID)
	}
	if err := svc2.Start(); err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()
	waitState(t, svc2, rec.ID, StateDone)
}

// TestClosedStoreRefusesPut: a Put after Close fails and leaves the job
// log's bytes as Close left them, instead of reopening the log.
func TestClosedStoreRefusesPut(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	spec := mcSpec(10, 0)
	rec := st.AllocRecord(spec, SpecHash(spec), "", time.Now())
	if err := st.Put(rec); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, jobLogName)
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rec.State = StateRunning
	if err := st.Put(rec); err == nil {
		t.Fatal("Put after Close succeeded")
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, before) {
		t.Fatalf("job log went from %d to %d bytes after Close", len(before), len(after))
	}
}

// TestClosedStoreRefusesSaveReport: a report saved to a closed store is
// refused, and neither the report file nor the ledger appears.
func TestClosedStoreRefusesSaveReport(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := st.SaveReport("job-000001", metrics.NewReport("montecarlo")); !errors.Is(err, errClosed) {
		t.Fatalf("SaveReport after Close: %v, want errClosed", err)
	}
	for _, path := range []string{st.ReportPath("job-000001"), st.ledgerPath()} {
		if info, err := os.Stat(path); err == nil && info.Size() > 0 {
			t.Fatalf("SaveReport after Close wrote %s (%d bytes)", path, info.Size())
		}
	}
}

// TestSubmitRacingCloseIsDraining: a submission whose commit finds the
// store closed is refused with ErrDraining (HTTP 503), never another error.
// It runs the window deterministically, with the store closed under a
// live service, then lets submissions race Service.Close: every one is
// acked and durable, or refused with ErrDraining.
func TestSubmitRacingCloseIsDraining(t *testing.T) {
	svc, err := New(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.store.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Submit(mcSpec(10, 0)); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit to a closed store: %v, want ErrDraining", err)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	svc, err = New(Config{Dir: dir, QueueCap: 1024})
	if err != nil {
		t.Fatal(err)
	}
	const n = 64
	var wg sync.WaitGroup
	ids := make([]string, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			spec := mcSpec(10, 0)
			spec.Seed = uint64(i + 1)
			rec, err := svc.Submit(spec)
			ids[i], errs[i] = rec.ID, err
		}(i)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	reopened, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	acked := 0
	for i, err := range errs {
		switch {
		case err == nil:
			acked++
			if _, ok := reopened.Get(ids[i]); !ok {
				t.Fatalf("acked job %s (submit %d) missing after reopen", ids[i], i)
			}
		case !errors.Is(err, ErrDraining):
			t.Fatalf("submit %d racing Close: %v, want ErrDraining", i, err)
		}
	}
	t.Logf("%d of %d submits racing Close were acked", acked, n)
}

// TestIntakeTornTailRecovery simulates a crash mid-append: a WAL whose last
// line is truncated must open cleanly, keeping every complete entry and
// dropping the torn (never-acked) tail.
func TestIntakeTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	svc, err := New(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	a, err := svc.Submit(mcSpec(10, 0))
	if err != nil {
		t.Fatal(err)
	}
	b, err := svc.Submit(mcSpec(11, 0))
	if err != nil {
		t.Fatal(err)
	}
	svc.Close()

	walPath := filepath.Join(dir, jobLogName)
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(strings.TrimRight(string(data), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("WAL holds %d lines, want 2", len(lines))
	}
	// Tear the second record in half, as a crash between write and sync
	// could leave it.
	torn := lines[0] + lines[1][:len(lines[1])/2]
	if err := os.WriteFile(walPath, []byte(torn), 0o644); err != nil {
		t.Fatal(err)
	}

	reopened, err := OpenStore(dir)
	if err != nil {
		t.Fatalf("open over torn WAL: %v", err)
	}
	defer reopened.Close()
	if _, ok := reopened.Get(a.ID); !ok {
		t.Fatalf("complete entry %s lost", a.ID)
	}
	if _, ok := reopened.Get(b.ID); ok {
		t.Fatalf("torn entry %s resurrected", b.ID)
	}
}

// TestMissingJobLogReissuesNoID simulates a crash between moving the job
// log aside and writing its replacement, as scrubLog's quarantine and a
// damaged log's Rewrite both do: no job log is left. The reopened store
// must answer for every job the ledger witnessed, with the spec hash the
// ledger recorded, and never hand one of their IDs to a new submission.
func TestMissingJobLogReissuesNoID(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	// The last transition is terminal, so the ledger syncs every entry.
	history := writeTransitions(t, st)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, jobLogName)
	if err := os.Rename(path, path+".quarantine"); err != nil {
		t.Fatal(err)
	}

	reopened, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	for _, recs := range history {
		want := recs[len(recs)-1]
		if got, ok := reopened.Get(want.ID); !ok || !got.lost() || got.SpecHash != want.SpecHash {
			t.Fatalf("%s reopened as %+v (found %v), want failed as lost with spec hash %s", want.ID, got, ok, want.SpecHash)
		}
	}
	spec := mcSpec(20, 0)
	if next := reopened.AllocRecord(spec, SpecHash(spec), "", time.Now()); next.ID != "job-000004" {
		t.Fatalf("next submission got %s, want job-000004", next.ID)
	}
}

// logLines returns the job log's lines.
func logLines(t *testing.T, dir string) []string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, jobLogName))
	if err != nil {
		t.Fatal(err)
	}
	return strings.SplitAfter(strings.TrimSuffix(string(data), "\n"), "\n")
}

// TestIntakeWALCompaction checks both compaction triggers, opening a log
// that is due and a log outgrowing the threshold in flight, and that
// compaction keeps exactly the latest line per job.
func TestIntakeWALCompaction(t *testing.T) {
	dir := t.TempDir()
	svc, err := New(Config{Dir: dir, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Start(); err != nil {
		t.Fatal(err)
	}
	rec, err := svc.Submit(mcSpec(10, 0))
	if err != nil {
		t.Fatal(err)
	}
	done := waitState(t, svc, rec.ID, StateDone)
	svc.Close()
	if n := len(logLines(t, dir)); n != 3 {
		t.Fatalf("finished job left %d log lines, want 3 (queued, running, done)", n)
	}

	// Shrink the threshold so the reopen finds the log due: the finished
	// job's three lines become its latest one.
	old := walCompactBytes
	walCompactBytes = 256
	defer func() { walCompactBytes = old }()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	st.Close()
	lines := logLines(t, dir)
	if len(lines) != 1 || !strings.Contains(lines[0], `"state":"done"`) || !strings.Contains(lines[0], done.ReportHash) {
		t.Fatalf("log after compacting reopen: %q, want the done line alone", lines)
	}

	// In-flight trigger: a handful of queued records overflow the threshold
	// and the log is rewritten to its live set, so the byte count stops
	// growing linearly.
	svc2, err := New(Config{Dir: dir, QueueCap: 64})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		spec := mcSpec(20+i, 0)
		if _, err := svc2.Submit(spec); err != nil {
			t.Fatal(err)
		}
	}
	svc2.Close()
	reopened, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if n := len(reopened.Jobs()); n != 9 {
		t.Fatalf("%d records after compacting reopen, want 9", n)
	}
	if n := len(logLines(t, dir)); n != 9 {
		t.Fatalf("%d log lines after compacting reopen, want one per job (9)", n)
	}
}

// TestJobLogWritersRaceScrub puts transitions of shared jobs from several
// goroutines while scrub passes replay the log and small-threshold
// compactions rewrite it: whatever order the writers land in, each record
// in memory is its job's last log line, so a reopen agrees with memory.
func TestJobLogWritersRaceScrub(t *testing.T) {
	old := walCompactBytes
	walCompactBytes = 1024
	defer func() { walCompactBytes = old }()
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	var recs []JobRecord
	for trials := 1; trials <= 8; trials++ {
		spec := mcSpec(trials, 0)
		recs = append(recs, st.AllocRecord(spec, SpecHash(spec), "", time.Now()))
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 32; i++ {
				next := recs[i%len(recs)]
				next.Attempts = w*100 + i
				if err := st.Put(next); err != nil {
					t.Error(err)
					return
				}
				st.Jobs()
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			if stats := st.Scrub(nil); stats.Corrupt != 0 || len(stats.Errors) != 0 {
				t.Errorf("scrub over live writers: %+v", stats)
			}
		}
	}()
	wg.Wait()
	want := st.Jobs()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	for _, w := range want {
		if got, _ := re.Get(w.ID); !sameRecord(got, w) {
			t.Fatalf("reopened %s as %+v, memory held %+v", w.ID, got, w)
		}
	}
}

// TestFailedJobReleasesDedupKey: a failed job must not absorb a
// resubmission of its spec — the resubmit runs fresh. TimeoutMS is an
// execution knob outside the hash, so the retry (without the lethal
// deadline) carries the same spec hash as the failed job.
func TestFailedJobReleasesDedupKey(t *testing.T) {
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
	doomed := mcSpec(500, 0)
	doomed.TimeoutMS = 1
	rec, err := svc.Submit(doomed)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, svc, rec.ID, StateFailed)

	retry := mcSpec(500, 0)
	rec2, hit, err := svc.SubmitDedup(retry, "")
	if err != nil {
		t.Fatal(err)
	}
	if hit || rec2.ID == rec.ID {
		t.Fatalf("resubmit after failure -> hit=%v id=%s, want a fresh job (failed %s must not be served)", hit, rec2.ID, rec.ID)
	}
}
