package service

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"bankaware/internal/ledger"
)

// This file is the corruption fault-injection suite: every durable
// artifact gets one byte flipped and the integrity layer must detect it,
// quarantine it (never silently delete), and heal — re-queueing the job or
// re-leasing the shard so determinism replaces the rotten bytes with fresh
// identical ones.

// flipByteAfter flips one byte of the file at path, at the position right
// after the first occurrence of marker (or at mid-file when marker is
// empty). Flipping inside a JSON string value keeps the document parseable,
// so only content hashing can catch the damage.
func flipByteAfter(t *testing.T, path, marker string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	idx := len(data) / 2
	if marker != "" {
		at := bytes.Index(data, []byte(marker))
		if at < 0 {
			t.Fatalf("marker %q not found in %s", marker, path)
		}
		idx = at + len(marker)
	}
	if data[idx] != 'f' {
		data[idx] = 'f'
	} else {
		data[idx] = '0'
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// runToDone submits one small Monte Carlo job and waits for its report.
func runToDone(t *testing.T, svc *Service, trials int) JobRecord {
	t.Helper()
	rec, err := svc.Submit(mcSpec(trials, 0))
	if err != nil {
		t.Fatal(err)
	}
	return waitState(t, svc, rec.ID, StateDone)
}

// TestCorruptReportServes503AndSelfHeals pins the read-path healing loop:
// a flipped byte in a stored report turns the next GET into a 503 with
// Retry-After and a machine-readable reason, the poisoned file moves to
// quarantine, the job re-queues, and the deterministic re-run serves bytes
// identical to the original — all without an operator.
func TestCorruptReportServes503AndSelfHeals(t *testing.T) {
	const trials = 12
	want := directMonteCarloBytes(t, trials, 2009)
	svc, ts := startHTTP(t, Config{}, true)
	rec := runToDone(t, svc, trials)

	flipByteAfter(t, svc.Store().ReportPath(rec.ID), ``)

	resp, err := http.Get(ts.URL + "/v1/jobs/" + rec.ID + "/report")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("corrupt report served %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 for corrupt report lacks Retry-After")
	}
	var body struct {
		Reason   string `json:"reason"`
		Requeued bool   `json:"requeued"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if body.Reason != "report-corrupt" || !body.Requeued {
		t.Fatalf("503 body = %+v, want reason report-corrupt and requeued true", body)
	}
	if _, err := os.Stat(svc.Store().ReportPath(rec.ID) + ".quarantine"); err != nil {
		t.Fatalf("corrupt report was not quarantined: %v", err)
	}

	waitState(t, svc, rec.ID, StateDone)
	if got := reportBytes(t, svc, rec.ID); !bytes.Equal(got, want) {
		t.Fatalf("healed report differs from the original: %d bytes vs %d", len(got), len(want))
	}
}

// TestScrubDetectsQuarantinesAndRequeues pins the proactive half: a scrub
// pass finds the flipped report without anyone reading it, quarantines it
// and re-queues the job.
func TestScrubDetectsQuarantinesAndRequeues(t *testing.T) {
	const trials = 10
	want := directMonteCarloBytes(t, trials, 2009)
	svc, _ := startHTTP(t, Config{}, true)
	rec := runToDone(t, svc, trials)

	flipByteAfter(t, svc.Store().ReportPath(rec.ID), ``)
	stats := svc.Scrub()
	if stats.Corrupt != 1 {
		t.Fatalf("scrub found %d corrupt artifacts, want 1 (stats %+v)", stats.Corrupt, stats)
	}
	if len(stats.Requeued) != 1 || stats.Requeued[0] != rec.ID {
		t.Fatalf("scrub requeued %v, want [%s]", stats.Requeued, rec.ID)
	}
	if _, err := os.Stat(svc.Store().ReportPath(rec.ID) + ".quarantine"); err != nil {
		t.Fatalf("scrub did not quarantine the report: %v", err)
	}
	if last := svc.LastScrub(); last == nil || last.Corrupt != 1 {
		t.Fatalf("LastScrub = %+v, want the recorded pass", last)
	}

	waitState(t, svc, rec.ID, StateDone)
	if got := reportBytes(t, svc, rec.ID); !bytes.Equal(got, want) {
		t.Fatal("report healed by scrub differs from the original")
	}
	// A clean follow-up pass finds nothing.
	if stats := svc.Scrub(); stats.Corrupt != 0 {
		t.Fatalf("second scrub found %d corrupt, want 0", stats.Corrupt)
	}
}

// TestOfflineScrubRequeuesForNextStart pins the `bankawared scrub -dir`
// path: with no daemon running, Store.Scrub(requeue=true) flips the
// damaged job back to queued durably, and the next daemon start re-runs it.
func TestOfflineScrubRequeuesForNextStart(t *testing.T) {
	const trials = 8
	want := directMonteCarloBytes(t, trials, 2009)
	dir := t.TempDir()
	svc, err := New(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Start(); err != nil {
		t.Fatal(err)
	}
	rec := runToDone(t, svc, trials)
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}

	flipByteAfter(t, svc.Store().ReportPath(rec.ID), ``)
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	stats := st.Scrub(nil, true)
	if stats.Corrupt != 1 || len(stats.Requeued) != 1 {
		t.Fatalf("offline scrub stats %+v, want 1 corrupt / 1 requeued", stats)
	}
	if got, _ := st.Get(rec.ID); got.State != StateQueued {
		t.Fatalf("offline scrub left job in %s, want queued", got.State)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	svc2, err := New(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()
	if err := svc2.Start(); err != nil {
		t.Fatal(err)
	}
	waitState(t, svc2, rec.ID, StateDone)
	if got := reportBytes(t, svc2, rec.ID); !bytes.Equal(got, want) {
		t.Fatal("report healed across restart differs from the original")
	}
}

// TestCorruptShardUploadReleasedAndRetried pins the verified-transport
// contract: an upload whose payload does not hash to its declared sum is
// rejected with the typed ErrCorruptUpload, never stored, and the shard
// re-leases immediately so a clean attempt completes the job.
func TestCorruptShardUploadReleasedAndRetried(t *testing.T) {
	const trials = 12 // ShardUnits 6 -> 2 shards
	want := directMonteCarloBytes(t, trials, 2009)
	svc, _ := startHTTP(t, Config{
		Coordinator: true, LeaseTTL: time.Minute, ShardUnits: 6,
	}, true)
	rec, err := svc.Submit(mcSpec(trials, 0))
	if err != nil {
		t.Fatal(err)
	}
	grants := leaseAll(t, svc, 2)
	uploads := make([]*ShardUpload, len(grants))
	for i, g := range grants {
		units, err := executeShardUnits(context.Background(), g.Spec, g.From, g.To, shardOptions{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		uploads[i] = &ShardUpload{Job: g.Job, Shard: g.Shard, Lease: g.Lease, Units: units, Sum: unitsSum(units)}
	}

	// Damage shard 0's payload after the sum was computed — the in-transit
	// flip the coordinator must catch.
	damaged := *uploads[0]
	damaged.Units = append([]json.RawMessage(nil), uploads[0].Units...)
	tampered := append([]byte(nil), damaged.Units[0]...)
	tampered[bytes.IndexByte(tampered, ':')+1] ^= 0x01
	damaged.Units[0] = tampered
	err = svc.CompleteShard(&damaged)
	if !errors.Is(err, ErrCorruptUpload) {
		t.Fatalf("corrupt upload returned %v, want ErrCorruptUpload", err)
	}
	if _, statErr := os.Stat(svc.Store().shardDirPath(rec.ID) + "/partial-0.json"); statErr == nil {
		t.Fatal("corrupt upload was stored as a partial")
	}

	// The shard released immediately: it leases again without waiting out
	// the TTL (a minute here, so a TTL wait would time the test out).
	regrant := leaseAll(t, svc, 1)[0]
	if regrant.Shard != uploads[0].Shard {
		t.Fatalf("re-leased shard %d, want %d", regrant.Shard, uploads[0].Shard)
	}
	units, err := executeShardUnits(context.Background(), regrant.Spec, regrant.From, regrant.To, shardOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range []*ShardUpload{
		{Job: regrant.Job, Shard: regrant.Shard, Lease: regrant.Lease, Units: units, Sum: unitsSum(units)},
		uploads[1],
	} {
		if err := svc.CompleteShard(u); err != nil {
			t.Fatal(err)
		}
	}
	waitState(t, svc, rec.ID, StateDone)
	if got := reportBytes(t, svc, rec.ID); !bytes.Equal(got, want) {
		t.Fatal("report after corrupt-upload recovery differs from single-node run")
	}
}

// TestCorruptPartialAtMergeRequeuesShard pins merge-time healing: a
// partial that rots on disk between completion and merge is quarantined,
// the shard re-opens for leasing, and the re-computed partial completes
// the job with the correct bytes.
func TestCorruptPartialAtMergeRequeuesShard(t *testing.T) {
	const trials = 12 // 2 shards
	want := directMonteCarloBytes(t, trials, 2009)
	svc, _ := startHTTP(t, Config{
		Coordinator: true, LeaseTTL: time.Minute, ShardUnits: 6,
	}, true)
	rec, err := svc.Submit(mcSpec(trials, 0))
	if err != nil {
		t.Fatal(err)
	}
	grants := leaseAll(t, svc, 2)
	uploads := make([]*ShardUpload, len(grants))
	for i, g := range grants {
		units, err := executeShardUnits(context.Background(), g.Spec, g.From, g.To, shardOptions{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		uploads[i] = &ShardUpload{Job: g.Job, Shard: g.Shard, Lease: g.Lease, Units: units, Sum: unitsSum(units)}
	}
	if err := svc.CompleteShard(uploads[0]); err != nil {
		t.Fatal(err)
	}
	// Rot the stored partial before the campaign settles.
	partial := svc.Store().shardDirPath(rec.ID) + fmt.Sprintf("/partial-%d.json", uploads[0].Shard)
	flipByteAfter(t, partial, `:`)
	if err := svc.CompleteShard(uploads[1]); err != nil {
		t.Fatal(err)
	}

	// The merge detects the rot, quarantines, and re-opens the shard; the
	// next lease is the damaged shard again.
	regrant := leaseAll(t, svc, 1)[0]
	if regrant.Shard != uploads[0].Shard {
		t.Fatalf("re-leased shard %d, want %d", regrant.Shard, uploads[0].Shard)
	}
	if _, err := os.Stat(partial + ".quarantine"); err != nil {
		t.Fatalf("rotten partial was not quarantined: %v", err)
	}
	units, err := executeShardUnits(context.Background(), regrant.Spec, regrant.From, regrant.To, shardOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.CompleteShard(&ShardUpload{
		Job: regrant.Job, Shard: regrant.Shard, Lease: regrant.Lease,
		Units: units, Sum: unitsSum(units),
	}); err != nil {
		t.Fatal(err)
	}
	waitState(t, svc, rec.ID, StateDone)
	if got := reportBytes(t, svc, rec.ID); !bytes.Equal(got, want) {
		t.Fatal("report after partial-rot recovery differs from single-node run")
	}
}

// TestCorruptLedgerQuarantinedAndRebuilt pins ledger recovery: a flipped
// byte inside a ledger entry fails the replay closed, the damaged log is
// quarantined, and a fresh ledger rebuilds from the store's records — with
// the report hash witnessed again, so proofs keep verifying.
func TestCorruptLedgerQuarantinedAndRebuilt(t *testing.T) {
	const trials = 8
	dir := t.TempDir()
	svc, err := New(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Start(); err != nil {
		t.Fatal(err)
	}
	rec := runToDone(t, svc, trials)
	reportSum := sha256.Sum256(reportBytes(t, svc, rec.ID))
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}

	flipByteAfter(t, dir+"/ledger.log", `"hash":"`)
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatalf("store must recover from a corrupt ledger, got %v", err)
	}
	defer st.Close()
	if _, qerr := os.Stat(dir + "/ledger.log.quarantine"); qerr != nil {
		t.Fatalf("corrupt ledger was not quarantined: %v", qerr)
	}
	led := st.Ledger()
	if led.Len() == 0 {
		t.Fatal("rebuilt ledger is empty")
	}
	e, ok := led.LatestReport(rec.ID)
	if !ok {
		t.Fatal("rebuilt ledger lost the report entry")
	}
	if e.Hash != hex.EncodeToString(reportSum[:]) {
		t.Fatalf("rebuilt ledger witnesses %s, report hashes to %x", e.Hash, reportSum)
	}
	proof, err := led.Prove(e.Index)
	if err != nil {
		t.Fatal(err)
	}
	if err := proof.Verify(hex.EncodeToString(reportSum[:])); err != nil {
		t.Fatalf("proof from rebuilt ledger fails: %v", err)
	}
}

// byteSubs are the two single-byte faults the every-byte flip tests inject
// at each offset of a durable log.
var byteSubs = []struct {
	name string
	fn   func(byte) byte
}{
	{"xor01", func(b byte) byte { return b ^ 0x01 }},
	{"newline", func(byte) byte { return '\n' }},
}

// writeFiles writes name -> contents under dir.
func writeFiles(t *testing.T, dir string, files map[string][]byte) {
	t.Helper()
	for name, data := range files {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestIntakeWALEveryByteFlip flips every byte of a 3-record intake WAL, by
// XOR 0x01 and by overwriting it with a newline. Each reopen must either
// keep all 3 queued records intact or quarantine the damaged WAL and
// answer for every lost record as a failed job — never lose a record
// silently. A lost job's ID is never handed out again, and the daemon
// serves its failed record.
func TestIntakeWALEveryByteFlip(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	var recs []JobRecord
	for _, trials := range []int{4, 6, 8} {
		spec := mcSpec(trials, 0)
		recs = append(recs, st.AllocRecord(spec, SpecHash(spec), "", time.Now()))
	}
	if err := st.AppendIntake(recs); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	wal, err := os.ReadFile(filepath.Join(dir, intakeWALName))
	if err != nil {
		t.Fatal(err)
	}
	led, err := os.ReadFile(filepath.Join(dir, "ledger.log"))
	if err != nil {
		t.Fatal(err)
	}

	// reopen opens a fresh store holding the original ledger and the given
	// WAL bytes, and returns how many records it lost.
	reopen := func(t *testing.T, data []byte) (string, int) {
		t.Helper()
		d := t.TempDir()
		writeFiles(t, d, map[string][]byte{intakeWALName: data, "ledger.log": led})
		re, err := OpenStore(d)
		if err != nil {
			t.Fatal(err)
		}
		defer re.Close()
		lost := 0
		for _, want := range recs {
			got, ok := re.Get(want.ID)
			switch {
			case !ok:
				t.Fatalf("job %s vanished", want.ID)
			case got.State == StateFailed && got.Error == lostIntakeError && got.Seq == want.Seq:
				lost++
			case got.State != StateQueued || got.SpecHash != want.SpecHash || got.Spec.MonteCarlo.Trials != want.Spec.MonteCarlo.Trials:
				t.Fatalf("job %s reloaded as %+v", want.ID, got)
			}
		}
		if next := re.AllocRecord(mcSpec(1, 0), "", "", time.Now()); next.Seq != len(recs)+1 {
			t.Fatalf("next job would be %s", next.ID)
		}
		return d, lost
	}
	for _, sub := range byteSubs {
		for off := range wal {
			data := append([]byte{}, wal...)
			data[off] = sub.fn(data[off])
			d, lost := reopen(t, data)
			if lost == 0 {
				continue
			}
			if q, err := os.ReadFile(filepath.Join(d, intakeWALName+".quarantine")); err != nil || !bytes.Equal(q, data) {
				t.Fatalf("%s@%d: %d records lost and the damaged WAL not quarantined", sub.name, off, lost)
			}
		}
	}

	// One damaged record, served: GET answers with the failed job.
	data := append([]byte{}, wal...)
	data[bytes.IndexByte(data, '\n')+20] ^= 0x01
	d, lost := reopen(t, data)
	if lost != 1 {
		t.Fatalf("flip inside record 2 lost %d records, want 1", lost)
	}
	_, ts := startHTTP(t, Config{Dir: d}, false)
	resp, err := http.Get(ts.URL + "/v1/jobs/" + recs[1].ID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got JobRecord
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET lost job: status %d, %v", resp.StatusCode, err)
	}
	if got.State != StateFailed || got.Error != lostIntakeError {
		t.Fatalf("GET lost job: %+v", got)
	}
}

// TestShardWALEveryByteFlip flips every byte of a 3-record shard WAL, by
// XOR 0x01 and by overwriting it with a newline. Each reopen must either
// keep all 3 shard states or quarantine the damaged WAL, keep every state
// that verified, and send each shard that lost its state back to pending —
// except a shard whose partial file proves it done.
func TestShardWALEveryByteFlip(t *testing.T) {
	dir := t.TempDir()
	mkplan := func() shardPlan {
		return shardPlan{Version: shardPlanVersion, Job: "job-000001", Units: 6,
			Shards: []shardSpan{{0, 0, 2}, {1, 2, 4}, {2, 4, 6}}}
	}
	d, err := openShardDir(dir, mkplan)
	if err != nil {
		t.Fatal(err)
	}
	deadline := leaseDeadline(time.Now(), time.Hour)
	if err := d.log(shardWALRecord{Shard: 0, State: ShardLeased, Worker: "w1", Lease: "l-1",
		DeadlineNS: deadline, Attempts: 1}); err != nil {
		t.Fatal(err)
	}
	if err := d.savePartial(1, []json.RawMessage{json.RawMessage(`{"u":2}`), json.RawMessage(`{"u":3}`)}, "w2", 1); err != nil {
		t.Fatal(err)
	}
	if err := d.log(shardWALRecord{Shard: 2, State: ShardPending, Attempts: 2}); err != nil {
		t.Fatal(err)
	}
	if err := d.wal.Close(); err != nil {
		t.Fatal(err)
	}
	files := make(map[string][]byte)
	for _, name := range []string{"plan.json", "partial-1.json", "state.wal"} {
		if files[name], err = os.ReadFile(filepath.Join(dir, name)); err != nil {
			t.Fatal(err)
		}
	}
	wal := files["state.wal"]
	// The states an undamaged reopen loads.
	clean, err := openShardDir(dir, mkplan)
	if err != nil {
		t.Fatal(err)
	}
	want := []shardWALRecord{clean.state(0), clean.state(1), clean.state(2)}
	clean.wal.Close()
	for _, sub := range byteSubs {
		for off := range wal {
			data := append([]byte{}, wal...)
			data[off] = sub.fn(data[off])
			files["state.wal"] = data
			rd := t.TempDir()
			writeFiles(t, rd, files)
			re, err := openShardDir(rd, func() shardPlan { t.Fatal("plan rebuilt"); return shardPlan{} })
			if err != nil {
				t.Fatalf("%s@%d: %v", sub.name, off, err)
			}
			lost := 0
			for idx, w := range want {
				got := re.state(idx)
				switch {
				case got == w:
				case idx == 1 && got.State == ShardDone:
					lost++ // the partial still proves it done
				case got.State == ShardPending && got.Lease == "":
					lost++
				default:
					t.Fatalf("%s@%d: shard %d reloaded as %+v, want %+v or pending", sub.name, off, idx, got, w)
				}
			}
			re.wal.Close()
			if lost == 0 {
				continue
			}
			if q, err := os.ReadFile(filepath.Join(rd, "state.wal.quarantine")); err != nil || !bytes.Equal(q, data) {
				t.Fatalf("%s@%d: %d states lost and the damaged WAL not quarantined", sub.name, off, lost)
			}
		}
	}
}

// TestLegacyLogsUpgrade opens an intake WAL, run ledger and shard WAL
// written in the unframed encoding that predates bankaware.log/v1: the
// records load unchanged, the ledger root is unchanged, and every log is
// framed afterwards.
func TestLegacyLogsUpgrade(t *testing.T) {
	copyFixture := func(t *testing.T, src string, names ...string) string {
		t.Helper()
		dir := t.TempDir()
		for _, name := range names {
			data, err := os.ReadFile(filepath.Join("testdata", src, name))
			if err != nil {
				t.Fatal(err)
			}
			writeFiles(t, dir, map[string][]byte{name: data})
		}
		return dir
	}
	framed := func(t *testing.T, path string) {
		t.Helper()
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) == 0 || data[0] == '{' || data[8] != ' ' {
			t.Fatalf("%s not framed after upgrade: %.40q", path, data)
		}
	}

	t.Run("intake", func(t *testing.T) {
		dir := copyFixture(t, "legacy-intake", intakeWALName, "ledger.log")
		st, err := OpenStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		// The root the unframed ledger had when it was written.
		const root = "5f241a0296685b45f68340c7706fb9906e9b79d85968933f7c65774f0e1ecceb"
		if got := st.Ledger().Root(); got != root {
			t.Fatalf("ledger root %s after upgrade, want %s", got, root)
		}
		jobs := st.Jobs()
		if len(jobs) != 3 {
			t.Fatalf("%d jobs after upgrade, want 3", len(jobs))
		}
		for i, rec := range jobs {
			spec := mcSpec([]int{4, 6, 8}[i], i)
			if rec.ID != fmt.Sprintf("job-%06d", i+1) || rec.State != StateQueued || rec.SpecHash != SpecHash(spec) {
				t.Fatalf("job %d after upgrade: %+v", i, rec)
			}
		}
		framed(t, filepath.Join(dir, intakeWALName))
		framed(t, filepath.Join(dir, "ledger.log"))
	})

	t.Run("shard", func(t *testing.T) {
		dir := copyFixture(t, "legacy-shard", "plan.json", "state.wal")
		d, err := openShardDir(dir, func() shardPlan { t.Fatal("plan rebuilt"); return shardPlan{} })
		if err != nil {
			t.Fatal(err)
		}
		defer d.wal.Close()
		const deadline = 1767323045000000000
		want := []shardWALRecord{
			{Shard: 0, State: ShardLeased, Worker: "w1", Lease: "l-1", DeadlineNS: deadline, Attempts: 1},
			{Shard: 1, State: ShardLeased, Worker: "w2", Lease: "l-2", DeadlineNS: deadline, Attempts: 1},
			{Shard: 2, State: ShardPending, Attempts: 2},
		}
		for idx, w := range want {
			if got := d.state(idx); got != w {
				t.Fatalf("shard %d after upgrade: %+v, want %+v", idx, got, w)
			}
		}
		framed(t, filepath.Join(dir, "state.wal"))
	})
}

// TestWorkerPostRetryBacksOffOn5xx pins the transport-hardening policy:
// transient 5xx and connection failures are retried with backoff until the
// budget runs out, while a 4xx verdict is definitive and never retried.
func TestWorkerPostRetryBacksOffOn5xx(t *testing.T) {
	var calls atomic.Int32
	mux := http.NewServeMux()
	mux.HandleFunc("/flaky", func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) < 3 {
			http.Error(w, "transient", http.StatusInternalServerError)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	var definitive atomic.Int32
	mux.HandleFunc("/definitive", func(w http.ResponseWriter, r *http.Request) {
		definitive.Add(1)
		http.Error(w, "no", http.StatusBadRequest)
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	w, err := NewWorker(WorkerConfig{Coordinator: ts.URL, Name: "w1"})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	if err := w.postRetry("/flaky", &LeaseRequest{Worker: "w1"}, nil, 10*time.Second); err != nil {
		t.Fatalf("retry across 5xx failed: %v", err)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("flaky endpoint called %d times, want 3 (2 failures + success)", got)
	}

	err = w.postRetry("/definitive", &LeaseRequest{Worker: "w1"}, nil, 10*time.Second)
	var se *statusError
	if !errors.As(err, &se) || se.code != http.StatusBadRequest {
		t.Fatalf("definitive 400 returned %v, want statusError 400", err)
	}
	if got := definitive.Load(); got != 1 {
		t.Fatalf("definitive endpoint called %d times, want exactly 1", got)
	}

	// The budget bounds a persistent outage: a dead endpoint returns the
	// last transport error instead of spinning forever.
	dead, err := NewWorker(WorkerConfig{Coordinator: "http://127.0.0.1:1", Name: "w2"})
	if err != nil {
		t.Fatal(err)
	}
	defer dead.Close()
	start := time.Now()
	if err := dead.postRetry("/x", &LeaseRequest{Worker: "w2"}, nil, 300*time.Millisecond); err == nil {
		t.Fatal("unreachable coordinator reported success")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("budgeted retry ran %s, want well under 5s", elapsed)
	}
}

// TestProofEndpointVerifiesEndToEnd is the client-verification loop over
// HTTP: fetch the report, fetch the proof, hash the bytes in hand and
// check them through the audit path to the root /healthz advertises.
func TestProofEndpointVerifiesEndToEnd(t *testing.T) {
	const trials = 10
	svc, ts := startHTTP(t, Config{}, true)
	rec := runToDone(t, svc, trials)

	resp, err := http.Get(ts.URL + "/v1/jobs/" + rec.ID + "/report")
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("report fetch: %d, %v", resp.StatusCode, err)
	}

	resp, err = http.Get(ts.URL + "/v1/jobs/" + rec.ID + "/proof")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("proof fetch: %d", resp.StatusCode)
	}
	proof, err := ledger.DecodeProof(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	if err := proof.Verify(hex.EncodeToString(sum[:])); err != nil {
		t.Fatalf("end-to-end verification failed: %v", err)
	}

	// Tampered bytes must fail closed against the same proof.
	tampered := sha256.Sum256(append(data, ' '))
	if err := proof.Verify(hex.EncodeToString(tampered[:])); err == nil {
		t.Fatal("proof verified foreign bytes")
	}

	// /healthz advertises the same root the proof chains to, plus the
	// ledger length.
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		LedgerRoot string `json:"ledger_root"`
		LedgerLen  int    `json:"ledger_len"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health.LedgerRoot != proof.Root {
		t.Fatalf("healthz root %s != proof root %s", health.LedgerRoot, proof.Root)
	}
	if health.LedgerLen != proof.TreeSize {
		t.Fatalf("healthz ledger_len %d != proof tree size %d", health.LedgerLen, proof.TreeSize)
	}

	// Proof for a job with no report is a clean 409, not a 500.
	resp, err = http.Get(ts.URL + "/v1/jobs/nope/proof")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("proof for unknown job: %d, want 404", resp.StatusCode)
	}
}

// TestLedgerRootReproducibleAcrossRestart pins that replaying the ledger
// on a clean reopen reproduces the same root a fresh rebuild from the
// store would — the "root reproducible from the store" property.
func TestLedgerRootReproducibleAcrossRestart(t *testing.T) {
	const trials = 6
	dir := t.TempDir()
	svc, err := New(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Start(); err != nil {
		t.Fatal(err)
	}
	rec := runToDone(t, svc, trials)
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen replays the same log: identical root.
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	replayedRoot := st.Ledger().Root()
	replayedEntry, ok := st.Ledger().LatestReport(rec.ID)
	if !ok {
		t.Fatal("replayed ledger lost the report entry")
	}
	st.Close()

	// Remove the ledger entirely: the rebuild witnesses the same report
	// hash (the roots differ — a rebuild compacts history to current state
	// — but the report commitment is identical).
	if err := os.Remove(dir + "/ledger.log"); err != nil {
		t.Fatal(err)
	}
	st, err = OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	rebuilt, ok := st.Ledger().LatestReport(rec.ID)
	if !ok {
		t.Fatal("rebuilt ledger lost the report entry")
	}
	if rebuilt.Hash != replayedEntry.Hash {
		t.Fatalf("rebuilt ledger witnesses %s, replayed one %s", rebuilt.Hash, replayedEntry.Hash)
	}
	if replayedRoot == "" || st.Ledger().Root() == "" {
		t.Fatal("empty ledger root")
	}
}
