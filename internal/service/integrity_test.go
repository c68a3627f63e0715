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
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"bankaware/internal/atomicio"
	"bankaware/internal/ledger"
	"bankaware/internal/runner"
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

// journaledOnDisk returns the units whose records verify in the unit
// journal at path, read without opening the journal for appending.
func journaledOnDisk(t *testing.T, path string) map[int]bool {
	t.Helper()
	units := make(map[int]bool)
	err := atomicio.Replay(path, func(line []byte) error {
		var rec struct {
			Job int `json:"job"`
		}
		if err := json.Unmarshal(line, &rec); err != nil {
			return err
		}
		units[rec.Job] = true
		return nil
	})
	if err != nil {
		t.Fatalf("reading unit journal: %v", err)
	}
	return units
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
// rejected with the typed ErrCorruptUpload, no unit of it reaches the
// job's unit journal, and the shard re-leases immediately so a clean
// attempt completes the job.
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
	// Nothing was accepted yet, so neither the journal file nor the
	// journal the merge reads may hold a unit.
	if on := journaledOnDisk(t, svc.Store().JournalPath(rec.ID)); len(on) != 0 {
		t.Fatalf("units %v of the corrupt upload reached the unit journal", on)
	}
	svc.coord.mu.Lock()
	lacks := svc.coord.sets[rec.ID].dir.units.Lacks(0, trials)
	svc.coord.mu.Unlock()
	if len(lacks) != trials {
		t.Fatalf("the unit journal holds %d units after a corrupt upload, want none", trials-len(lacks))
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

// TestCorruptUnitJournalReleasesLostShards pins recovery from a rotten
// unit journal: a coordinator stopped with three of four shards uploaded
// has one byte of a journaled unit flipped. The restarted coordinator
// quarantines the journal, keeps the units that verify, and leases exactly
// the shard whose unit was lost and the one never uploaded; the merged
// report equals the single-node bytes.
func TestCorruptUnitJournalReleasesLostShards(t *testing.T) {
	const trials = 12 // ShardUnits 3 -> 4 shards
	want := directMonteCarloBytes(t, trials, 2009)
	dir := t.TempDir()
	cfg := Config{Dir: dir, Coordinator: true, LeaseTTL: time.Minute, ShardUnits: 3}
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Start(); err != nil {
		t.Fatal(err)
	}
	rec, err := svc.Submit(mcSpec(trials, 0))
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range leaseAll(t, svc, 3) {
		uploadShard(t, svc, g)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}

	// Unit 4 is shard 1's: rot its record while the coordinator is down.
	journal := svc.Store().JournalPath(rec.ID)
	flipByteAfter(t, journal, `{"job":4,`)
	svc2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := svc2.Start(); err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()
	grants := leaseAll(t, svc2, 2)
	if grants[0].Shard != 1 || grants[1].Shard != 3 {
		t.Fatalf("re-leased shards %d and %d, want 1 (lost unit 4) and 3 (never uploaded)", grants[0].Shard, grants[1].Shard)
	}
	if g, ok, err := svc2.Lease("direct"); err != nil || ok {
		t.Fatalf("a shard beyond the lost ones leased: %+v, %v", g, err)
	}
	if _, err := os.Stat(journal + ".quarantine"); err != nil {
		t.Fatalf("the rotten unit journal was not quarantined: %v", err)
	}
	for _, g := range grants {
		uploadShard(t, svc2, g)
	}
	waitState(t, svc2, rec.ID, StateDone)
	if got := reportBytes(t, svc2, rec.ID); !bytes.Equal(got, want) {
		t.Fatal("report after unit-journal rot differs from single-node run")
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

// writeFiles writes name -> contents under dir, creating subdirectories.
func writeFiles(t *testing.T, dir string, files map[string][]byte) {
	t.Helper()
	for name, data := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// writeTransitions puts every kind of transition into st's job log: job 1
// queued (1 line), job 2 running (2 lines), job 3 done (3 lines). It
// returns each job's records in the order they were written.
func writeTransitions(t testing.TB, st *Store) [][]JobRecord {
	t.Helper()
	var queued []JobRecord
	for _, trials := range []int{4, 6, 8} {
		spec := mcSpec(trials, 0)
		queued = append(queued, st.AllocRecord(spec, SpecHash(spec), "", time.Now()))
	}
	if err := st.Put(queued...); err != nil {
		t.Fatal(err)
	}
	history := [][]JobRecord{{queued[0]}, {queued[1]}, {queued[2]}}
	next := func(job int, edit func(*JobRecord)) {
		rec := history[job][len(history[job])-1]
		edit(&rec)
		if err := st.Put(rec); err != nil {
			t.Fatal(err)
		}
		history[job] = append(history[job], rec)
	}
	running := func(rec *JobRecord) {
		rec.State, rec.Attempts, rec.StartedAt = StateRunning, 1, time.Now().UTC()
	}
	next(1, running)
	next(2, running)
	next(2, func(rec *JobRecord) {
		rec.State, rec.ReportHash, rec.FinishedAt = StateDone, strings.Repeat("ab", 32), time.Now().UTC()
	})
	return history
}

// sameRecord reports whether two records encode identically.
func sameRecord(a, b JobRecord) bool {
	x, _ := json.Marshal(a)
	y, _ := json.Marshal(b)
	return bytes.Equal(x, y)
}

// TestIntakeWALEveryByteFlip flips every byte of a job log holding every
// kind of transition, by XOR 0x01 and by overwriting it with a newline.
// Each reopen must bring every job back intact, at an earlier verified
// state, or failed as lost (with the spec hash the ledger witnessed) —
// never lose one silently — and quarantine the damaged log byte for byte
// whenever anything was lost. A lost job's ID is never handed out again,
// and the daemon serves its failed record.
func TestIntakeWALEveryByteFlip(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	history := writeTransitions(t, st)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	wal, err := os.ReadFile(filepath.Join(dir, jobLogName))
	if err != nil {
		t.Fatal(err)
	}
	led, err := os.ReadFile(filepath.Join(dir, "ledger.log"))
	if err != nil {
		t.Fatal(err)
	}

	// reopen opens a fresh store holding the original ledger and the given
	// log bytes, and returns how many jobs lost their latest record.
	reopen := func(t *testing.T, data []byte) (string, int) {
		t.Helper()
		d := t.TempDir()
		writeFiles(t, d, map[string][]byte{jobLogName: data, "ledger.log": led})
		re, err := OpenStore(d)
		if err != nil {
			t.Fatal(err)
		}
		defer re.Close()
		lost := 0
	jobs:
		for _, recs := range history {
			want := recs[len(recs)-1]
			got, ok := re.Get(want.ID)
			switch {
			case !ok:
				t.Fatalf("job %s vanished", want.ID)
			case sameRecord(got, want):
				continue
			case got.lost() && got.Seq == want.Seq && got.SpecHash == want.SpecHash:
				lost++
				continue
			}
			for _, earlier := range recs[:len(recs)-1] {
				if sameRecord(got, earlier) {
					lost++
					continue jobs
				}
			}
			t.Fatalf("job %s reloaded as %+v", want.ID, got)
		}
		if next := re.AllocRecord(mcSpec(1, 0), "", "", time.Now()); next.ID != "job-000004" {
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
			if q, err := os.ReadFile(filepath.Join(d, jobLogName+".quarantine")); err != nil || !bytes.Equal(q, data) {
				t.Fatalf("%s@%d: %d records lost and the damaged log not quarantined", sub.name, off, lost)
			}
		}
	}

	// Job 1's one record damaged, served: GET answers with the failed job.
	data := append([]byte{}, wal...)
	data[20] ^= 0x01
	d, lost := reopen(t, data)
	if lost != 1 {
		t.Fatalf("flip inside job 1's record lost %d records, want 1", lost)
	}
	_, ts := startHTTP(t, Config{Dir: d}, false)
	resp, err := http.Get(ts.URL + "/v1/jobs/" + history[0][0].ID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got JobRecord
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET lost job: status %d, %v", resp.StatusCode, err)
	}
	if got.State != StateFailed || got.Error != lostRecordError {
		t.Fatalf("GET lost job: %+v", got)
	}
}

// testShardPlan is the plan of the shard-state tests: 6 units in 3 shards.
func testShardPlan() shardPlan {
	return shardPlan{Version: shardPlanVersion, Job: "job-000001", Units: 6,
		Shards: []shardSpan{{0, 0, 2}, {1, 2, 4}, {2, 4, 6}}}
}

// testUnitJournal opens a unit journal holding units 2 and 3, all of the
// test plan's shard 1.
func testUnitJournal(t testing.TB) *runner.Journal {
	t.Helper()
	j, err := runner.OpenJournal(filepath.Join(t.TempDir(), "units.journal"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	if err := j.RecordBatch(2, []json.RawMessage{json.RawMessage(`{"u":2}`), json.RawMessage(`{"u":3}`)}); err != nil {
		t.Fatal(err)
	}
	return j
}

// TestShardWALEveryByteFlip flips every byte of a shard WAL holding the
// plan line and 3 shard states, by XOR 0x01 and by overwriting it with a
// newline, next to a unit journal that holds every unit of shard 1. A flip
// in the plan line must quarantine the whole dir and re-plan. Any other
// flip must keep the plan, and either keep all 3 shard states or
// quarantine the damaged WAL, keep every state that verified, and send
// each shard that lost its state back to pending. Shard 1 is done in every
// case, re-planned or not: done-ness is read from the journal.
func TestShardWALEveryByteFlip(t *testing.T) {
	dir := t.TempDir()
	units := testUnitJournal(t)
	d, err := openShardDir(dir, units, testShardPlan)
	if err != nil {
		t.Fatal(err)
	}
	deadline := leaseDeadline(time.Now(), time.Hour)
	if err := d.log(shardWALRecord{Shard: 0, State: ShardLeased, Worker: "w1", Lease: "l-1",
		DeadlineNS: deadline, Attempts: 1}); err != nil {
		t.Fatal(err)
	}
	if err := d.log(shardWALRecord{Shard: 1, State: ShardDone, Worker: "w2", Attempts: 1}); err != nil {
		t.Fatal(err)
	}
	if err := d.log(shardWALRecord{Shard: 2, State: ShardPending, Attempts: 2}); err != nil {
		t.Fatal(err)
	}
	if err := d.wal.Close(); err != nil {
		t.Fatal(err)
	}
	wal, err := os.ReadFile(filepath.Join(dir, "state.wal"))
	if err != nil {
		t.Fatal(err)
	}
	planLine := bytes.IndexByte(wal, '\n') + 1
	// The states an undamaged reopen loads.
	clean, err := openShardDir(dir, units, testShardPlan)
	if err != nil {
		t.Fatal(err)
	}
	want := []shardWALRecord{clean.state(0), clean.state(1), clean.state(2)}
	clean.wal.Close()
	if want[1].State != ShardDone {
		t.Fatalf("shard 1 reopened as %+v, want done", want[1])
	}
	for _, sub := range byteSubs {
		for off := range wal {
			data := append([]byte{}, wal...)
			data[off] = sub.fn(data[off])
			rd := t.TempDir()
			writeFiles(t, rd, map[string][]byte{"state.wal": data})
			replanned := false
			re, err := openShardDir(rd, units, func() shardPlan { replanned = true; return testShardPlan() })
			if err != nil {
				t.Fatalf("%s@%d: %v", sub.name, off, err)
			}
			re.wal.Close()
			if !reflect.DeepEqual(re.plan, testShardPlan()) {
				t.Fatalf("%s@%d: plan reloaded as %+v", sub.name, off, re.plan)
			}
			if inPlan := off < planLine && data[off] != wal[off]; replanned != inPlan {
				t.Fatalf("%s@%d: re-planned %v, want %v", sub.name, off, replanned, inPlan)
			}
			if got := re.state(1); got.State != ShardDone {
				t.Fatalf("%s@%d: shard 1, whose units are journaled, reloaded as %+v", sub.name, off, got)
			}
			if replanned {
				if q, err := os.ReadFile(filepath.Join(rd+".quarantine", "state.wal")); err != nil || !bytes.Equal(q, data) {
					t.Fatalf("%s@%d: plan lost and the dir not quarantined whole", sub.name, off)
				}
				for _, idx := range []int{0, 2} {
					if got := re.state(idx); got != (shardWALRecord{Shard: idx, State: ShardPending}) {
						t.Fatalf("%s@%d: re-planned shard %d starts as %+v", sub.name, off, idx, got)
					}
				}
				continue
			}
			lost := 0
			for idx, w := range want {
				got := re.state(idx)
				switch {
				case got == w:
				case idx == 1:
					lost++ // done without its WAL line
				case got.State == ShardPending && got.Lease == "":
					lost++
				default:
					t.Fatalf("%s@%d: shard %d reloaded as %+v, want %+v or pending", sub.name, off, idx, got, w)
				}
			}
			if lost == 0 {
				continue
			}
			if q, err := os.ReadFile(filepath.Join(rd, "state.wal.quarantine")); err != nil || !bytes.Equal(q, data) {
				t.Fatalf("%s@%d: %d states lost and the damaged WAL not quarantined", sub.name, off, lost)
			}
		}
	}
}

// FuzzShardWAL opens a shard dir over an arbitrary state.wal: the input's
// lines, each framed with a valid checksum when framed is set (so the
// fuzzer reaches the plan and state decoder rather than the CRC), or the
// raw bytes otherwise, next to a unit journal holding shard 1. openShardDir
// must never panic or fail on content. It either keeps a stored plan that
// tiles its units, or quarantines the dir whole and re-plans (a dir with
// no record in it plans afresh). Every shard of the plan comes back
// pending, leased or done, done exactly when the journal holds its units,
// and a second open restores the same plan and states.
func FuzzShardWAL(f *testing.F) {
	seed := f.TempDir()
	units := testUnitJournal(f)
	d, err := openShardDir(seed, units, testShardPlan)
	if err != nil {
		f.Fatal(err)
	}
	for _, rec := range []shardWALRecord{
		{Shard: 0, State: ShardLeased, Worker: "w1", Lease: "l-1", DeadlineNS: 1767323045000000000, Attempts: 1},
		{Shard: 1, State: ShardDone, Worker: "w2", Attempts: 1},
		{Shard: 2, State: ShardPending, Attempts: 2},
	} {
		if err := d.log(rec); err != nil {
			f.Fatal(err)
		}
	}
	d.wal.Close()
	wal, err := os.ReadFile(filepath.Join(seed, "state.wal"))
	if err != nil {
		f.Fatal(err)
	}
	var payloads [][]byte
	for _, line := range bytes.Split(bytes.TrimSuffix(wal, []byte("\n")), []byte("\n")) {
		payloads = append(payloads, line[9:])
	}
	f.Add(wal, false)
	f.Add(bytes.Join(payloads, []byte("\n")), true)
	f.Add(bytes.Join(payloads[1:], []byte("\n")), true)
	f.Add([]byte(`{"version":"bankaware.shard-plan/v1","units":6,"shards":[{"index":0,"from":0,"to":6}]}`), true)
	f.Fuzz(func(t *testing.T, data []byte, framed bool) {
		dir := filepath.Join(t.TempDir(), "job")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, "state.wal")
		if framed {
			log, err := atomicio.OpenLog(path, func([]byte) error { return nil })
			if err != nil {
				t.Fatal(err)
			}
			if err := log.Append(bytes.Split(data, []byte("\n")), false); err != nil {
				t.Fatal(err)
			}
			log.Close()
		} else if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		records := 0
		atomicio.Replay(path, func([]byte) error { records++; return nil })
		replanned := false
		re, err := openShardDir(dir, units, func() shardPlan { replanned = true; return testShardPlan() })
		if err != nil {
			t.Fatalf("openShardDir failed on content: %v", err)
		}
		re.wal.Close()
		if replanned && records > 0 {
			if _, err := os.Stat(filepath.Join(dir+".quarantine", "state.wal")); err != nil {
				t.Fatalf("re-planned over %d records without quarantining the dir whole: %v", records, err)
			}
		}
		next := 0
		for i, span := range re.plan.Shards {
			if span.Index != i || span.From != next || span.To <= span.From {
				t.Fatalf("kept plan %+v does not tile its units", re.plan)
			}
			next = span.To
		}
		if next != re.plan.Units || next == 0 {
			t.Fatalf("kept plan %+v does not tile its units", re.plan)
		}
		for _, span := range re.plan.Shards {
			st := re.state(span.Index)
			held := len(units.Lacks(span.From, span.To)) == 0
			if st.State != ShardPending && st.State != ShardLeased && st.State != ShardDone || (st.State == ShardDone) != held {
				t.Fatalf("shard %+v reloaded as %+v (units journaled: %v)", span, st, held)
			}
		}
		again, err := openShardDir(dir, units, func() shardPlan { t.Fatal("second open re-planned"); return shardPlan{} })
		if err != nil {
			t.Fatal(err)
		}
		again.wal.Close()
		if !reflect.DeepEqual(again.plan, re.plan) || !reflect.DeepEqual(again.states, re.states) {
			t.Fatalf("second open restored %+v %+v, first %+v %+v", again.plan, again.states, re.plan, re.states)
		}
	})
}

// TestLegacyLogsUpgrade opens stores written before this layout: an intake
// WAL, run ledger and shard WAL in the unframed encoding that predates
// bankaware.log/v1, a store keeping job records in per-job files, and a
// shard dir keeping its plan in plan.json. The records load unchanged, the
// ledger root is unchanged, every log is framed afterwards, and the old
// files are gone.
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
		dir := copyFixture(t, "legacy-intake", jobLogName, "ledger.log")
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
		framed(t, filepath.Join(dir, jobLogName))
		framed(t, filepath.Join(dir, "ledger.log"))
	})

	t.Run("store", func(t *testing.T) {
		// A finished job as a daemon left it when records lived in per-job
		// files: the log still holds its queued line, and the per-job file,
		// which wins, its done record.
		dir := copyFixture(t, "legacy-store", jobLogName, "ledger.log",
			"jobs/job-000001.json", "reports/job-000001.json")
		st, err := OpenStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		const root = "4fe1e43fa9cf3e0daf60cae52206ab54fd4b3978406bf5a012f5ba1787e4c03c"
		if got := st.Ledger().Root(); got != root {
			t.Fatalf("ledger root %s after upgrade, want %s", got, root)
		}
		rec, ok := st.Get("job-000001")
		if !ok || rec.State != StateDone || rec.SpecHash != SpecHash(mcSpec(4, 0)) {
			t.Fatalf("job after upgrade: %+v", rec)
		}
		if _, err := st.ReportBytes(rec.ID); err != nil {
			t.Fatalf("report after upgrade: %v", err)
		}
		if _, err := os.Stat(filepath.Join(dir, "jobs")); !os.IsNotExist(err) {
			t.Fatalf("jobs/ after upgrade: %v, want it gone", err)
		}
		if lines := logLines(t, dir); len(lines) != 1 || !strings.Contains(lines[0], `"state":"done"`) {
			t.Fatalf("log after upgrade: %q, want the done record alone", lines)
		}
	})

	t.Run("shard", func(t *testing.T) {
		dir := copyFixture(t, "legacy-shard", "plan.json", "state.wal")
		units, err := runner.OpenJournal(filepath.Join(t.TempDir(), "units.journal"))
		if err != nil {
			t.Fatal(err)
		}
		defer units.Close()
		d, err := openShardDir(dir, units, func() shardPlan { t.Fatal("plan rebuilt"); return shardPlan{} })
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
		if _, err := os.Stat(filepath.Join(dir, "plan.json")); !os.IsNotExist(err) {
			t.Fatalf("plan.json after upgrade: %v, want it gone", err)
		}
		data, err := os.ReadFile(filepath.Join(dir, "state.wal"))
		if err != nil {
			t.Fatal(err)
		}
		first, _, _ := bytes.Cut(data[9:], []byte("\n"))
		var plan shardPlan
		wantPlan := shardPlan{Version: shardPlanVersion, Job: "job-000001", Units: 6,
			Shards: []shardSpan{{0, 0, 2}, {1, 2, 4}, {2, 4, 6}}}
		if err := json.Unmarshal(first, &plan); err != nil || !reflect.DeepEqual(plan, wantPlan) {
			t.Fatalf("first WAL line %q, want the plan", first)
		}
	})
}

// TestEditedRecordIsNotACacheHit pins that an edited job record is detected
// rather than trusted: a finished 12-trial Monte Carlo job whose spec is
// rewritten to 13 trials in every store file but the ledger and the
// reports must not turn a 13-trial submission into a cache hit that serves
// the 12-trial report.
func TestEditedRecordIsNotACacheHit(t *testing.T) {
	dir := t.TempDir()
	svc, err := New(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Start(); err != nil {
		t.Fatal(err)
	}
	done := runToDone(t, svc, 12)
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	trials := regexp.MustCompile(`("trials":\s*)12`)
	edited := 0
	err = filepath.WalkDir(dir, func(path string, e fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case e.IsDir() && e.Name() == "reports":
			return filepath.SkipDir
		case e.IsDir() || e.Name() == "ledger.log":
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if !trials.Match(data) {
			return nil
		}
		edited++
		return os.WriteFile(path, trials.ReplaceAll(data, []byte("${1}13")), 0o644)
	})
	if err != nil || edited == 0 {
		t.Fatalf("editing the store: %d files, %v", edited, err)
	}

	svc2, _ := startHTTP(t, Config{Dir: dir}, true)
	rec, hit, err := svc2.SubmitDedup(mcSpec(13, 0), "")
	if err != nil {
		t.Fatal(err)
	}
	if hit || rec.ID == done.ID {
		t.Fatalf("13-trial submission hit the edited 12-trial job %s", done.ID)
	}
	if got, _ := svc2.Store().Get(done.ID); !got.lost() {
		t.Fatalf("edited job reloaded as %+v, want failed as lost", got)
	}
	waitState(t, svc2, rec.ID, StateDone)
	if !bytes.Equal(reportBytes(t, svc2, rec.ID), directMonteCarloBytes(t, 13, 2009)) {
		t.Fatal("13-trial submission served another report")
	}
}

// TestCorruptLegacyRecordOpens opens a store written when job records lived
// in per-job files, whose one record does not parse: the open succeeds,
// the file is quarantined, and the job answers as failed with the
// lost-record error instead of keeping the daemon from booting.
func TestCorruptLegacyRecordOpens(t *testing.T) {
	dir := t.TempDir()
	svc, err := New(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := svc.Submit(mcSpec(12, 0))
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	// Such a store once its job left queued: the log compacted to nothing,
	// the record in jobs/<id>.json, here torn.
	record := filepath.Join("jobs", rec.ID+".json")
	writeFiles(t, dir, map[string][]byte{jobLogName: nil, record: []byte(`{"id": "job-0000`)})

	_, ts := startHTTP(t, Config{Dir: dir}, false)
	if _, err := os.Stat(filepath.Join(dir, record+".quarantine")); err != nil {
		t.Fatalf("torn record not quarantined: %v", err)
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/" + rec.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got JobRecord
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET job with torn record: status %d, %v", resp.StatusCode, err)
	}
	if got.State != StateFailed || got.Error != lostRecordError {
		t.Fatalf("GET job with torn record: %+v", got)
	}
}

// TestScrubQuarantinesCorruptJobLog pins the scrubber's record check: a
// byte flipped in a running daemon's job log is found by the next pass,
// the damaged log is quarantined and rewritten from memory, and the store
// reopens with every record.
func TestScrubQuarantinesCorruptJobLog(t *testing.T) {
	dir := t.TempDir()
	svc, err := New(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Start(); err != nil {
		t.Fatal(err)
	}
	done := runToDone(t, svc, 8)
	path := filepath.Join(dir, jobLogName)
	flipByteAfter(t, path, `"kind":"`)
	stats := svc.Scrub()
	if stats.Corrupt != 1 {
		t.Fatalf("scrub found %d corrupt artifacts, want 1 (stats %+v)", stats.Corrupt, stats)
	}
	if _, err := os.Stat(path + ".quarantine"); err != nil {
		t.Fatalf("scrub did not quarantine the job log: %v", err)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if got, _ := st.Get(done.ID); !sameRecord(got, done) {
		t.Fatalf("job reopened as %+v, want %+v", got, done)
	}
	if jobs := st.Jobs(); len(jobs) != 1 {
		t.Fatalf("%d jobs after reopen, want 1", len(jobs))
	}
}

// FuzzJobLog feeds the job log arbitrary record payloads, one per line,
// each framed with a valid checksum so the fuzzer exercises the record
// decoder rather than the CRC, next to a fixed ledger. OpenStore must never
// panic or fail on content, and every record it loads must validate or be
// the lost-record failure.
func FuzzJobLog(f *testing.F) {
	seed := f.TempDir()
	st, err := OpenStore(seed)
	if err != nil {
		f.Fatal(err)
	}
	writeTransitions(f, st)
	if err := st.Close(); err != nil {
		f.Fatal(err)
	}
	led, err := os.ReadFile(filepath.Join(seed, "ledger.log"))
	if err != nil {
		f.Fatal(err)
	}
	wal, err := os.ReadFile(filepath.Join(seed, jobLogName))
	if err != nil {
		f.Fatal(err)
	}
	var payloads [][]byte
	for _, line := range bytes.Split(bytes.TrimSuffix(wal, []byte("\n")), []byte("\n")) {
		payloads = append(payloads, line[9:])
	}
	f.Add(bytes.Join(payloads, []byte("\n")))
	f.Add(payloads[len(payloads)-1])
	f.Add([]byte(`{"id":"job-000002","seq":2,"state":"failed","error":"` + lostRecordError + `"}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		writeFiles(t, dir, map[string][]byte{"ledger.log": led})
		jobLog, err := atomicio.OpenLog(filepath.Join(dir, jobLogName), func([]byte) error { return nil })
		if err != nil {
			t.Fatal(err)
		}
		if err := jobLog.Append(bytes.Split(data, []byte("\n")), false); err != nil {
			t.Fatal(err)
		}
		jobLog.Close()
		st, err := OpenStore(dir)
		if err != nil {
			t.Fatalf("OpenStore failed on content: %v", err)
		}
		defer st.Close()
		for _, rec := range st.Jobs() {
			if err := rec.Spec.Validate(); err != nil && !rec.lost() {
				t.Fatalf("loaded record %+v does not validate: %v", rec, err)
			}
		}
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
