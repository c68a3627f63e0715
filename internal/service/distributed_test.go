package service

import (
	"bytes"
	"context"
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
)

// startWorker attaches one pulling worker to a coordinator test server.
func startWorker(t *testing.T, ts *httptest.Server, name string, hook func(stage string, g *ShardGrant)) *Worker {
	t.Helper()
	w, err := NewWorker(WorkerConfig{Coordinator: ts.URL, Name: name, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	w.poll, w.onShard = 10*time.Millisecond, hook
	if err := w.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	return w
}

// uploadShard computes a granted shard and uploads its units to svc.
func uploadShard(t *testing.T, svc *Service, g *ShardGrant) {
	t.Helper()
	units, err := executeShardUnits(context.Background(), g.Spec, g.From, g.To, shardOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.CompleteShard(&ShardUpload{Job: g.Job, Shard: g.Shard, Lease: g.Lease, Units: units, Sum: unitsSum(units)}); err != nil {
		t.Fatal(err)
	}
}

// reportBytes reads the stored report of a finished job.
func reportBytes(t *testing.T, svc *Service, id string) []byte {
	t.Helper()
	data, err := os.ReadFile(svc.Store().ReportPath(id))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestDistributedByteIdenticalAcrossWorkerCounts is the determinism
// property test: the same campaign sharded across 1, 2 and 5 workers must
// produce a merged report byte-identical to the single-node library run.
func TestDistributedByteIdenticalAcrossWorkerCounts(t *testing.T) {
	const trials = 40
	want := directMonteCarloBytes(t, trials, 2009)
	for _, workers := range []int{1, 2, 5} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			svc, ts := startHTTP(t, Config{
				Coordinator: true, LeaseTTL: 2 * time.Second, ShardUnits: 8,
			}, true)
			for i := 0; i < workers; i++ {
				startWorker(t, ts, fmt.Sprintf("w%d", i), nil)
			}
			rec, err := svc.Submit(mcSpec(trials, 0))
			if err != nil {
				t.Fatal(err)
			}
			waitState(t, svc, rec.ID, StateDone)
			if got := reportBytes(t, svc, rec.ID); !bytes.Equal(got, want) {
				t.Fatalf("distributed report (%d workers) differs from single-node run:\n got %d bytes\nwant %d bytes", workers, len(got), len(want))
			}
		})
	}
}

// leaseAll drains the coordinator's pending shards for one job into grants.
func leaseAll(t *testing.T, svc *Service, want int) []*ShardGrant {
	t.Helper()
	var grants []*ShardGrant
	deadline := time.Now().Add(30 * time.Second)
	for len(grants) < want && time.Now().Before(deadline) {
		g, ok, err := svc.Lease("direct")
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			time.Sleep(5 * time.Millisecond)
			continue
		}
		grants = append(grants, g)
	}
	if len(grants) != want {
		t.Fatalf("leased %d shards, want %d", len(grants), want)
	}
	return grants
}

// TestDistributedShuffledCompletionOrders drives the work protocol
// directly: every shard is computed up front, then uploaded in several
// fixed permutations — the merged bytes must not depend on completion
// order (the merge is by shard index, not arrival).
func TestDistributedShuffledCompletionOrders(t *testing.T) {
	const trials = 30 // ShardUnits 6 -> 5 shards
	want := directMonteCarloBytes(t, trials, 2009)
	orders := [][]int{
		{0, 1, 2, 3, 4},
		{4, 3, 2, 1, 0},
		{2, 0, 4, 1, 3},
		{1, 4, 0, 3, 2},
	}
	for _, order := range orders {
		t.Run(fmt.Sprintf("order=%v", order), func(t *testing.T) {
			svc, _ := startHTTP(t, Config{
				Coordinator: true, LeaseTTL: time.Minute, ShardUnits: 6,
			}, true)
			rec, err := svc.Submit(mcSpec(trials, 0))
			if err != nil {
				t.Fatal(err)
			}
			grants := leaseAll(t, svc, len(order))
			uploads := make([]*ShardUpload, len(grants))
			for i, g := range grants {
				units, err := executeShardUnits(context.Background(), g.Spec, g.From, g.To, shardOptions{Workers: 2})
				if err != nil {
					t.Fatal(err)
				}
				uploads[i] = &ShardUpload{Job: g.Job, Shard: g.Shard, Lease: g.Lease, Units: units, Sum: unitsSum(units)}
			}
			for _, i := range order {
				if err := svc.CompleteShard(uploads[i]); err != nil {
					t.Fatal(err)
				}
			}
			waitState(t, svc, rec.ID, StateDone)
			if got := reportBytes(t, svc, rec.ID); !bytes.Equal(got, want) {
				t.Fatalf("completion order %v changed the merged report bytes", order)
			}
		})
	}
}

// TestDistributedCompleteIsIdempotent re-uploads a finished shard and a
// mismatched one: the duplicate is accepted silently, the bad unit count
// rejected, and neither perturbs the final report.
func TestDistributedCompleteIsIdempotent(t *testing.T) {
	const trials = 12 // ShardUnits 6 -> 2 shards
	svc, _ := startHTTP(t, Config{
		Coordinator: true, LeaseTTL: time.Minute, ShardUnits: 6,
	}, true)
	rec, err := svc.Submit(mcSpec(trials, 0))
	if err != nil {
		t.Fatal(err)
	}
	grants := leaseAll(t, svc, 2)
	var uploads []*ShardUpload
	for _, g := range grants {
		units, err := executeShardUnits(context.Background(), g.Spec, g.From, g.To, shardOptions{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		uploads = append(uploads, &ShardUpload{Job: g.Job, Shard: g.Shard, Lease: g.Lease, Units: units, Sum: unitsSum(units)})
	}
	// Truncated upload: wrong unit count for the shard's range.
	bad := &ShardUpload{Job: uploads[0].Job, Shard: uploads[0].Shard, Lease: uploads[0].Lease,
		Units: uploads[0].Units[:1]}
	if err := svc.CompleteShard(bad); err == nil {
		t.Fatal("truncated upload accepted")
	}
	if err := svc.CompleteShard(uploads[0]); err != nil {
		t.Fatal(err)
	}
	// Duplicate completion (a worker retrying after a lost ack).
	if err := svc.CompleteShard(uploads[0]); err != nil {
		t.Fatalf("duplicate completion rejected: %v", err)
	}
	if err := svc.CompleteShard(uploads[1]); err != nil {
		t.Fatal(err)
	}
	waitState(t, svc, rec.ID, StateDone)
	if got, want := reportBytes(t, svc, rec.ID), directMonteCarloBytes(t, trials, 2009); !bytes.Equal(got, want) {
		t.Fatal("report differs from single-node run after duplicate uploads")
	}
}

// TestDistributedLeaseExpiryRequeues proves the failover path without real
// workers: lease a shard, never renew it, and require the coordinator to
// re-queue it and grant it again to someone else.
func TestDistributedLeaseExpiryRequeues(t *testing.T) {
	svc, _ := startHTTP(t, Config{
		Coordinator: true, LeaseTTL: 80 * time.Millisecond, ShardUnits: 10,
	}, true)
	rec, err := svc.Submit(mcSpec(10, 0))
	if err != nil {
		t.Fatal(err)
	}
	grants := leaseAll(t, svc, 1)
	dead := grants[0]

	// Let the lease rot; the next pull (or the expiry tick) must steal it.
	var stolen *ShardGrant
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		g, ok, err := svc.Lease("thief")
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			stolen = g
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if stolen == nil {
		t.Fatal("expired lease never re-granted")
	}
	if stolen.Shard != dead.Shard || stolen.Lease == dead.Lease {
		t.Fatalf("stole shard %d lease %q, want shard %d with a fresh lease", stolen.Shard, stolen.Lease, dead.Shard)
	}
	// The dead worker's renewal must now be rejected: its lease is history.
	if err := svc.Renew(&ShardAck{Job: dead.Job, Shard: dead.Shard, Lease: dead.Lease}); err == nil {
		t.Fatal("superseded lease renewed")
	}
	units, err := executeShardUnits(context.Background(), stolen.Spec, stolen.From, stolen.To, shardOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.CompleteShard(&ShardUpload{Job: stolen.Job, Shard: stolen.Shard, Lease: stolen.Lease, Units: units, Sum: unitsSum(units)}); err != nil {
		t.Fatal(err)
	}
	waitState(t, svc, rec.ID, StateDone)
	if got, want := reportBytes(t, svc, rec.ID), directMonteCarloBytes(t, 10, 2009); !bytes.Equal(got, want) {
		t.Fatal("report differs from single-node run after a lease steal")
	}
}

// TestDistributedChaosKillWorkerGolden is the chaos acceptance e2e:
// coordinator plus three in-process workers run the pinned set-1 campaign
// (the repository's golden spec); one worker is killed mid-shard with
// SIGKILL semantics — no farewell, no upload, its lease simply rots. The
// shard must re-queue on expiry, a surviving worker must steal it, and the
// merged report must be byte-identical to testdata/golden-set1-report.json.
func TestDistributedChaosKillWorkerGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full set evaluation in -short mode")
	}
	golden, err := os.ReadFile(filepath.Join("..", "..", "testdata", "golden-set1-report.json"))
	if err != nil {
		t.Fatalf("reading golden file: %v", err)
	}

	svc, ts := startHTTP(t, Config{
		Coordinator: true, LeaseTTL: 500 * time.Millisecond, ShardUnits: 1,
	}, true)

	// Worker 0 is the victim: the moment it starts its first shard it is
	// killed (from a goroutine — kill waits for the pull loop, and the hook
	// runs on it). Workers 1 and 2 keep pulling.
	var (
		killOnce sync.Once
		killed   = make(chan struct{})
		victim   *Worker
	)
	victim = startWorker(t, ts, "victim", func(stage string, g *ShardGrant) {
		if stage != workerShardStart {
			return
		}
		killOnce.Do(func() {
			go func() {
				victim.kill()
				close(killed)
			}()
		})
	})
	startWorker(t, ts, "survivor-1", nil)
	startWorker(t, ts, "survivor-2", nil)

	_, rec := postJob(t, ts,
		`{"kind":"set","observe":true,"set":{"set":1,"epochCycles":200000,"instructions":300000}}`)

	select {
	case <-killed:
	case <-time.After(60 * time.Second):
		t.Fatal("victim worker never leased a shard")
	}
	done := waitState(t, svc, rec.ID, StateDone)
	if done.ReportHash == "" {
		t.Fatal("finished job has no report hash")
	}

	// The job's event stream must record the failover: the victim's lease
	// expired and its shard was re-queued, then completed by a survivor.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + rec.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	var requeued, victimLeases int
	for _, ev := range readSSE(t, resp) {
		if ev.typ != EventShard {
			continue
		}
		if strings.Contains(ev.data, `"requeued"`) && strings.Contains(ev.data, "lease expired") {
			requeued++
		}
		if strings.Contains(ev.data, `"leased"`) && strings.Contains(ev.data, `"victim"`) {
			victimLeases++
		}
	}
	if victimLeases == 0 {
		t.Fatal("victim never held a lease — the kill tested nothing")
	}
	if requeued == 0 {
		t.Fatal("no shard was re-queued by lease expiry after the kill")
	}

	if got := reportBytes(t, svc, rec.ID); !bytes.Equal(got, golden) {
		t.Fatalf("merged report after worker kill differs from golden file (%d vs %d bytes)", len(got), len(golden))
	}
}

// restartCoordinator opens a second coordinator over cfg.Dir, the first
// one closed, and waits until it distributes job id again.
func restartCoordinator(t *testing.T, cfg Config, id string) (*Service, *httptest.Server, []ShardStatus) {
	t.Helper()
	svc, ts := startHTTP(t, cfg, true)
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		if statuses, ok := svc.ShardStatuses(id); ok {
			return svc, ts, statuses
		}
	}
	t.Fatalf("restarted coordinator never distributed %s", id)
	return nil, nil, nil
}

// TestCoordinatorRestartResumesFromJournal renews one shard's lease while
// four others upload, then restarts the coordinator over the same store.
// The restarted coordinator keeps no lease state: the shards the unit
// journal completes are done, every other shard is pending at once (the
// one whose lease was live too, with a TTL far longer than the test), and
// the finished job equals the direct run.
func TestCoordinatorRestartResumesFromJournal(t *testing.T) {
	const trials = 40 // ShardUnits 5 -> 8 shards
	cfg := Config{Dir: t.TempDir(), Coordinator: true, LeaseTTL: time.Minute, ShardUnits: 5}
	svc, _ := startHTTP(t, cfg, true)
	rec, err := svc.Submit(mcSpec(trials, 0))
	if err != nil {
		t.Fatal(err)
	}
	grants := leaseAll(t, svc, 5)
	held, completing := grants[0], grants[1:]

	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // renewal traffic on the held lease
		defer wg.Done()
		for i := 0; i < 50; i++ {
			if err := svc.Renew(&ShardAck{Job: held.Job, Shard: held.Shard, Lease: held.Lease}); err != nil {
				t.Errorf("renewal %d rejected: %v", i, err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	go func() { // completion traffic
		defer wg.Done()
		for _, g := range completing {
			units, err := executeShardUnits(context.Background(), g.Spec, g.From, g.To, shardOptions{Workers: 2})
			if err != nil {
				t.Error(err)
				return
			}
			if err := svc.CompleteShard(&ShardUpload{Job: g.Job, Shard: g.Shard, Lease: g.Lease, Units: units, Sum: unitsSum(units)}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	if t.Failed() {
		return
	}
	statuses, ok := svc.ShardStatuses(rec.ID)
	if !ok {
		t.Fatal("job not distributing")
	}
	var doneShards int
	for _, st := range statuses {
		if st.State == ShardDone {
			doneShards++
		}
		if st.Shard == held.Shard && st.State != ShardLeased {
			t.Fatalf("held shard %d is %s after renewals, want leased", st.Shard, st.State)
		}
	}
	if doneShards != len(completing) {
		t.Fatalf("%d shards done, want %d", doneShards, len(completing))
	}

	svc.Close()
	journaled := journaledOnDisk(t, svc.Store().JournalPath(rec.ID))
	if len(journaled) != 5*len(completing) {
		t.Fatalf("unit journal holds %d units after %d uploads of 5", len(journaled), len(completing))
	}
	svc2, _, resumed := restartCoordinator(t, cfg, rec.ID)
	if len(resumed) != 8 {
		t.Fatalf("resumed job shows %d shards, want 8", len(resumed))
	}
	for _, st := range resumed {
		done := true
		for u := st.From; u < st.To; u++ {
			done = done && journaled[u]
		}
		want := ShardStatus{Shard: st.Shard, From: st.From, To: st.To, State: ShardPending}
		if done {
			want.State = ShardDone
		}
		if st != want {
			t.Fatalf("resumed shard %+v, want %+v (units journaled: %v)", st, want, done)
		}
	}

	// The held shard and the 3 never leased are granted at once: no lease
	// from before the restart is waited out.
	for _, g := range leaseAll(t, svc2, 8-len(completing)) {
		uploadShard(t, svc2, g)
	}
	waitState(t, svc2, rec.ID, StateDone)
	if got, want := reportBytes(t, svc2, rec.ID), directMonteCarloBytes(t, trials, 2009); !bytes.Equal(got, want) {
		t.Fatal("resumed distributed report differs from single-node run")
	}
	noUnitState(t, svc2, rec.ID)
}

// TestLeaseFromBeforeRestartIsRejected pins that a lease token is never
// issued twice. A restarted coordinator counts a shard's attempts from
// zero again, yet a lease granted before the restart is rejected by Renew
// and FailShard after it, both before and after the same shard is granted
// again, an upload under it is rejected too, and the new lease stays live.
func TestLeaseFromBeforeRestartIsRejected(t *testing.T) {
	const trials = 10 // ShardUnits 10 -> 1 shard
	cfg := Config{Dir: t.TempDir(), Coordinator: true, LeaseTTL: time.Minute, ShardUnits: 10}
	svc, _ := startHTTP(t, cfg, true)
	rec, err := svc.Submit(mcSpec(trials, 0))
	if err != nil {
		t.Fatal(err)
	}
	stale := leaseAll(t, svc, 1)[0]
	svc.Close()
	units, err := executeShardUnits(context.Background(), stale.Spec, stale.From, stale.To, shardOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}

	svc2, _, _ := restartCoordinator(t, cfg, rec.ID)
	ack := &ShardAck{Job: stale.Job, Shard: stale.Shard, Lease: stale.Lease, Error: "stale"}
	if err := svc2.Renew(ack); !errors.Is(err, ErrUnknownLease) {
		t.Fatalf("renewing a lease from before the restart: %v, want ErrUnknownLease", err)
	}
	again := leaseAll(t, svc2, 1)[0]
	if again.Shard != stale.Shard || again.Lease == stale.Lease {
		t.Fatalf("re-granted shard %d lease %q; the lease before the restart was shard %d lease %q",
			again.Shard, again.Lease, stale.Shard, stale.Lease)
	}
	if err := svc2.Renew(ack); !errors.Is(err, ErrUnknownLease) {
		t.Fatalf("renewing a lease from before the restart after the re-grant: %v, want ErrUnknownLease", err)
	}
	if err := svc2.FailShard(ack); !errors.Is(err, ErrUnknownLease) {
		t.Fatalf("failing a lease from before the restart after the re-grant: %v, want ErrUnknownLease", err)
	}
	upload := &ShardUpload{Job: stale.Job, Shard: stale.Shard, Lease: stale.Lease, Units: units, Sum: unitsSum(units)}
	if err := svc2.CompleteShard(upload); !errors.Is(err, ErrUnknownLease) {
		t.Fatalf("uploading under a lease from before the restart: %v, want ErrUnknownLease", err)
	}
	if err := svc2.Renew(&ShardAck{Job: again.Job, Shard: again.Shard, Lease: again.Lease}); err != nil {
		t.Fatalf("the live lease no longer renews: %v", err)
	}
	upload.Lease = again.Lease
	if err := svc2.CompleteShard(upload); err != nil {
		t.Fatal(err)
	}
	waitState(t, svc2, rec.ID, StateDone)
	if got, want := reportBytes(t, svc2, rec.ID), directMonteCarloBytes(t, trials, 2009); !bytes.Equal(got, want) {
		t.Fatal("report differs from single-node run")
	}
}

// TestShardUnitsChangeReplansHalfFinishedJob restarts a coordinator with
// ShardUnits 8 over a 40-trial job half finished under ShardUnits 5 (the
// first plan's shards 0 and 2 uploaded): the new plan is derived from the
// spec, the journaled units carry over, and the merged report equals the
// direct run.
func TestShardUnitsChangeReplansHalfFinishedJob(t *testing.T) {
	const trials = 40
	cfg := Config{Dir: t.TempDir(), Coordinator: true, LeaseTTL: time.Minute, ShardUnits: 5}
	first, _ := startHTTP(t, cfg, true)
	rec, err := first.Submit(mcSpec(trials, 0))
	if err != nil {
		t.Fatal(err)
	}
	old := leaseAll(t, first, 4)
	uploadShard(t, first, old[0])
	uploadShard(t, first, old[2])
	first.Close()

	cfg.ShardUnits = 8
	svc, ts, resumed := restartCoordinator(t, cfg, rec.ID)
	if len(resumed) != trials/8 {
		t.Fatalf("re-planned job shows %d shards, want %d", len(resumed), trials/8)
	}
	startWorker(t, ts, "w0", nil)
	waitState(t, svc, rec.ID, StateDone)
	if got, want := reportBytes(t, svc, rec.ID), directMonteCarloBytes(t, trials, 2009); !bytes.Equal(got, want) {
		t.Fatalf("re-planned report (%d bytes) differs from the direct run (%d bytes)", len(got), len(want))
	}
}

// TestUploadUnderOldPlanLeaseIsRejected restarts a coordinator with
// ShardUnits 2 over a 12-trial job leased under ShardUnits 5. The old
// plan's shard 2 is units [10, 12) and the new plan's shard 2 is [4, 6),
// as long, and an upload names no range of its own: a worker that
// finishes its old lease and uploads to the restarted coordinator must be
// turned away, not have units 10 and 11 journaled as 4 and 5. The shard
// stays pending and the merged report equals the direct run.
func TestUploadUnderOldPlanLeaseIsRejected(t *testing.T) {
	const trials = 12
	cfg := Config{Dir: t.TempDir(), Coordinator: true, LeaseTTL: time.Minute, ShardUnits: 5}
	svc, _ := startHTTP(t, cfg, true)
	rec, err := svc.Submit(mcSpec(trials, 0))
	if err != nil {
		t.Fatal(err)
	}
	old := leaseAll(t, svc, 3)[2]
	svc.Close()
	if old.Shard != 2 || old.From != 10 || old.To != 12 {
		t.Fatalf("old plan's last shard is %d [%d, %d), want 2 [10, 12)", old.Shard, old.From, old.To)
	}
	units, err := executeShardUnits(context.Background(), old.Spec, old.From, old.To, shardOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}

	cfg.ShardUnits = 2
	svc2, _, resumed := restartCoordinator(t, cfg, rec.ID)
	if st := resumed[old.Shard]; st.From != 4 || st.To != 6 {
		t.Fatalf("new plan's shard %d is [%d, %d), want [4, 6)", old.Shard, st.From, st.To)
	}
	err = svc2.CompleteShard(&ShardUpload{Job: old.Job, Shard: old.Shard, Lease: old.Lease, Units: units, Sum: unitsSum(units)})
	if !errors.Is(err, ErrUnknownLease) {
		t.Fatalf("upload under the old plan's lease: %v, want ErrUnknownLease", err)
	}
	if statuses, ok := svc2.ShardStatuses(rec.ID); !ok || statuses[old.Shard].State != ShardPending {
		t.Fatalf("shard %d after the rejected upload: %+v, want pending", old.Shard, statuses)
	}
	for _, g := range leaseAll(t, svc2, trials/2) {
		uploadShard(t, svc2, g)
	}
	waitState(t, svc2, rec.ID, StateDone)
	if got, want := reportBytes(t, svc2, rec.ID), directMonteCarloBytes(t, trials, 2009); !bytes.Equal(got, want) {
		t.Fatalf("re-planned report (%d bytes) differs from the direct run (%d bytes)", len(got), len(want))
	}
}

// TestDrainedJobResumesUnderCoordinator drains a Monte Carlo job on a
// single-node daemon mid-run and reopens its store as a coordinator: both
// modes key the unit journal by unit index, so the coordinator leases
// exactly the shards whose units the journal lacks, and the merged report
// equals the direct run's bytes.
func TestDrainedJobResumesUnderCoordinator(t *testing.T) {
	const trials, shardUnits = 200, 10
	dir := t.TempDir()
	st, rec := drainMidRun(t, dir, mcSpec(trials, 0), 25)
	journaled := journaledOnDisk(t, st.JournalPath(rec.ID))
	var lacking []int
	for idx, span := range planShards(trials, shardUnits) {
		for u := span.From; u < span.To; u++ {
			if !journaled[u] {
				lacking = append(lacking, idx)
				break
			}
		}
	}
	if len(lacking) == trials/shardUnits {
		t.Fatalf("the drain journaled %d trials and no whole shard", len(journaled))
	}

	svc2, err := New(Config{Dir: dir, Coordinator: true, LeaseTTL: time.Minute, ShardUnits: shardUnits})
	if err != nil {
		t.Fatal(err)
	}
	if err := svc2.Start(); err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()
	grants := leaseAll(t, svc2, len(lacking))
	for i, g := range grants {
		if g.Shard != lacking[i] {
			t.Fatalf("lease %d is shard %d, want %d: the shards the journal lacks are %v", i, g.Shard, lacking[i], lacking)
		}
	}
	if g, ok, err := svc2.Lease("direct"); err != nil || ok {
		t.Fatalf("a shard the journal completes was leased: %+v, %v", g, err)
	}
	for _, g := range grants {
		uploadShard(t, svc2, g)
	}
	waitState(t, svc2, rec.ID, StateDone)
	if got := reportBytes(t, svc2, rec.ID); !bytes.Equal(got, directMonteCarloBytes(t, trials, 2009)) {
		t.Fatal("report resumed under a coordinator differs from the direct run")
	}
	noUnitState(t, svc2, rec.ID)
}

// TestCoordinatorTerminalJobsDropUnitState pins that a coordinator keeps a
// running job's units in its unit journal alone, and drops the journal
// when the job is canceled and when it hits its deadline, uploads
// accepted or not.
func TestCoordinatorTerminalJobsDropUnitState(t *testing.T) {
	svc, _ := startHTTP(t, Config{Coordinator: true, LeaseTTL: time.Minute, ShardUnits: 5}, true)

	canceled, err := svc.Submit(mcSpec(20, 0))
	if err != nil {
		t.Fatal(err)
	}
	uploadShard(t, svc, leaseAll(t, svc, 1)[0])
	if _, err := os.Stat(svc.Store().JournalPath(canceled.ID)); err != nil {
		t.Fatalf("running job has no unit journal: %v", err)
	}
	if _, err := os.Stat(filepath.Join(svc.Store().dir, "shards")); !os.IsNotExist(err) {
		t.Fatalf("a coordinator made a shards dir (%v)", err)
	}
	if _, ok := svc.Cancel(canceled.ID); !ok {
		t.Fatal("cancel of a distributing job refused")
	}
	waitState(t, svc, canceled.ID, StateCanceled)
	noUnitState(t, svc, canceled.ID)

	timed := mcSpec(21, 0)
	timed.TimeoutMS = 1500
	rec, err := svc.Submit(timed)
	if err != nil {
		t.Fatal(err)
	}
	uploadShard(t, svc, leaseAll(t, svc, 1)[0])
	waitState(t, svc, rec.ID, StateFailed)
	noUnitState(t, svc, rec.ID)
}

// TestSubmitDedupDuplicateAtWorker covers the dedup satellite: a worker
// daemon that also serves its own intake API receives the same spec the
// coordinator is distributing. The worker's own store dedups the repeat
// submission, and its locally-computed report is byte-identical to the
// coordinator's distributed merge — the same bytes exist on both sides
// without any coordination between their dedup indexes.
func TestSubmitDedupDuplicateAtWorker(t *testing.T) {
	spec := mcSpec(25, 0)
	want := directMonteCarloBytes(t, 25, 2009)

	coord, ts := startHTTP(t, Config{
		Coordinator: true, LeaseTTL: 2 * time.Second, ShardUnits: 10,
	}, true)
	startWorker(t, ts, "w0", nil)

	// The worker daemon's own service: plain local execution, same API.
	workerSvc, _ := startHTTP(t, Config{Workers: 2}, true)

	rec, err := coord.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	wrec, hit, err := workerSvc.SubmitDedup(spec, "")
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("first worker-side submission reported as duplicate")
	}
	dup, hit, err := workerSvc.SubmitDedup(spec, "")
	if err != nil {
		t.Fatal(err)
	}
	if !hit || dup.ID != wrec.ID {
		t.Fatalf("duplicate at worker not coalesced: hit=%v id=%s want %s", hit, dup.ID, wrec.ID)
	}

	waitState(t, coord, rec.ID, StateDone)
	waitState(t, workerSvc, wrec.ID, StateDone)
	coordBytes := reportBytes(t, coord, rec.ID)
	workerBytes := reportBytes(t, workerSvc, wrec.ID)
	if !bytes.Equal(coordBytes, want) {
		t.Fatal("distributed report differs from single-node run")
	}
	if !bytes.Equal(workerBytes, coordBytes) {
		t.Fatal("worker-local report differs from the coordinator's distributed merge")
	}
}

// TestPlanShards pins the shard planner's arithmetic.
func TestPlanShards(t *testing.T) {
	cases := []struct {
		n, size int
		want    []shardSpan
	}{
		{10, 4, []shardSpan{{0, 4}, {4, 8}, {8, 10}}},
		{3, 0, []shardSpan{{0, 1}, {1, 2}, {2, 3}}}, // default: n/16 rounded up -> 1
		{1, 100, []shardSpan{{0, 1}}},
		{32, 0, []shardSpan{{0, 2}, {2, 4}, {4, 6}, {6, 8}, {8, 10}, {10, 12}, {12, 14}, {14, 16}, {16, 18}, {18, 20}, {20, 22}, {22, 24}, {24, 26}, {26, 28}, {28, 30}, {30, 32}}},
	}
	for _, c := range cases {
		p := planShards(c.n, c.size)
		if len(p) != len(c.want) {
			t.Fatalf("planShards(%d, %d): %d shards, want %d", c.n, c.size, len(p), len(c.want))
		}
		for i, span := range p {
			if span != c.want[i] {
				t.Fatalf("planShards(%d, %d)[%d] = %+v, want %+v", c.n, c.size, i, span, c.want[i])
			}
		}
	}
}
