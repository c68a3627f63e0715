package service

import (
	"bytes"
	"context"
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
	w, err := NewWorker(WorkerConfig{
		Coordinator: ts.URL, Name: name, Dir: t.TempDir(),
		Workers: 2, Poll: 10 * time.Millisecond, OnShard: hook,
	})
	if err != nil {
		t.Fatal(err)
	}
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
	// killed (from a goroutine — Kill waits for the pull loop, and the hook
	// runs on it). Workers 1 and 2 keep pulling.
	var (
		killOnce sync.Once
		killed   = make(chan struct{})
		victim   *Worker
	)
	victim = startWorker(t, ts, "victim", func(stage string, g *ShardGrant) {
		if stage != WorkerShardStart {
			return
		}
		killOnce.Do(func() {
			go func() {
				victim.Kill()
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

// TestShardWALCompactionRacesRenewal hammers lease renewals on one shard
// while other shards complete — with the compaction threshold shrunk so
// the WAL rewrites many times mid-traffic — then restarts the coordinator
// over the same store and requires (a) the completed shards to come back
// done from the unit journal and (b) the resumed job to finish
// byte-identical.
func TestShardWALCompactionRacesRenewal(t *testing.T) {
	old := shardWALCompactBytes
	shardWALCompactBytes = 64 // force a compaction on nearly every append
	t.Cleanup(func() { shardWALCompactBytes = old })

	const trials = 40 // ShardUnits 5 -> 8 shards
	dir := t.TempDir()
	svc, _ := startHTTP(t, Config{
		Dir: dir, Coordinator: true, LeaseTTL: 300 * time.Millisecond, ShardUnits: 5,
	}, true)
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
		for i := 0; i < 200; i++ {
			if err := svc.Renew(&ShardAck{Job: held.Job, Shard: held.Shard, Lease: held.Lease}); err != nil {
				t.Errorf("renewal %d rejected: %v", i, err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	go func() { // completion traffic driving WAL appends + compactions
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

	// Restart over the same store: the compacted WAL plus the unit journal
	// must reconstruct the exact same state, and the resumed job must merge
	// to the single-node bytes once the remaining shards complete.
	svc.Close()
	journaled := journaledOnDisk(t, svc.Store().JournalPath(rec.ID))
	if len(journaled) != 5*len(completing) {
		t.Fatalf("unit journal holds %d units after %d uploads of 5", len(journaled), len(completing))
	}
	svc2, err := New(Config{
		Dir: dir, Coordinator: true, LeaseTTL: 300 * time.Millisecond, ShardUnits: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := svc2.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc2.Close() })
	var resumed []ShardStatus
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		if resumed, ok = svc2.ShardStatuses(rec.ID); ok {
			break
		}
	}
	for _, st := range resumed {
		done := true
		for u := st.From; u < st.To; u++ {
			done = done && journaled[u]
		}
		if done != (st.State == ShardDone) {
			t.Fatalf("resumed shard %d is %s, its units journaled: %v", st.Shard, st.State, done)
		}
	}
	if len(resumed) != 8 {
		t.Fatalf("resumed job shows %d shards, want 8", len(resumed))
	}

	remaining := 8 - len(completing) // the held shard (its lease expires) + 3 never leased
	for i := 0; i < remaining; i++ {
		g := leaseAll(t, svc2, 1)[0]
		units, err := executeShardUnits(context.Background(), g.Spec, g.From, g.To, shardOptions{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		if err := svc2.CompleteShard(&ShardUpload{Job: g.Job, Shard: g.Shard, Lease: g.Lease, Units: units, Sum: unitsSum(units)}); err != nil {
			t.Fatal(err)
		}
	}
	waitState(t, svc2, rec.ID, StateDone)
	if got, want := reportBytes(t, svc2, rec.ID), directMonteCarloBytes(t, trials, 2009); !bytes.Equal(got, want) {
		t.Fatal("resumed distributed report differs from single-node run")
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
	for _, span := range planShards(rec.ID, trials, shardUnits).Shards {
		for u := span.From; u < span.To; u++ {
			if !journaled[u] {
				lacking = append(lacking, span.Index)
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

// TestCoordinatorTerminalJobsDropUnitState pins that a coordinator drops a
// job's unit journal and shard dir when the job is canceled and when it
// hits its deadline, uploads accepted or not.
func TestCoordinatorTerminalJobsDropUnitState(t *testing.T) {
	svc, _ := startHTTP(t, Config{Coordinator: true, LeaseTTL: time.Minute, ShardUnits: 5}, true)

	canceled, err := svc.Submit(mcSpec(20, 0))
	if err != nil {
		t.Fatal(err)
	}
	uploadShard(t, svc, leaseAll(t, svc, 1)[0])
	for _, path := range []string{svc.Store().JournalPath(canceled.ID), svc.Store().shardDirPath(canceled.ID)} {
		if _, err := os.Stat(path); err != nil {
			t.Fatalf("running job has no %s: %v", path, err)
		}
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
		{10, 4, []shardSpan{{0, 0, 4}, {1, 4, 8}, {2, 8, 10}}},
		{3, 0, []shardSpan{{0, 0, 1}, {1, 1, 2}, {2, 2, 3}}}, // default: n/16 rounded up -> 1
		{1, 100, []shardSpan{{0, 0, 1}}},
		{32, 0, []shardSpan{{0, 0, 2}, {1, 2, 4}, {2, 4, 6}, {3, 6, 8}, {4, 8, 10}, {5, 10, 12}, {6, 12, 14}, {7, 14, 16}, {8, 16, 18}, {9, 18, 20}, {10, 20, 22}, {11, 22, 24}, {12, 24, 26}, {13, 26, 28}, {14, 28, 30}, {15, 30, 32}}},
	}
	for _, c := range cases {
		p := planShards("j", c.n, c.size)
		if p.Units != c.n || len(p.Shards) != len(c.want) {
			t.Fatalf("planShards(%d, %d): %d shards over %d units, want %d", c.n, c.size, len(p.Shards), p.Units, len(c.want))
		}
		for i, span := range p.Shards {
			if span != c.want[i] {
				t.Fatalf("planShards(%d, %d)[%d] = %+v, want %+v", c.n, c.size, i, span, c.want[i])
			}
		}
	}
}
