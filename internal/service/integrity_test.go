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
	"regexp"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"bankaware/internal/atomicio"
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

// bumpLastDigit rewrites the report at path with its last digit changed:
// still a well-formed report, but not the bytes that were stored. It
// returns the new bytes' SHA-256.
func bumpLastDigit(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	i := bytes.LastIndexAny(data, "0123456789")
	data[i] = '0' + (data[i]-'0'+1)%10
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// getCorrupt GETs path and requires the 503 report-corrupt answer that
// re-queued the job.
func getCorrupt(t *testing.T, ts *httptest.Server, path string) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Reason   string `json:"reason"`
		Requeued bool   `json:"requeued"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable || body.Reason != "report-corrupt" || !body.Requeued {
		t.Fatalf("GET %s -> %d %+v, want 503 report-corrupt and requeued", path, resp.StatusCode, body)
	}
}

// TestHTTPDiffCorruptReport503: /v1/diff reads reports through the same
// verification as /report, so a report with one digit changed is a 503
// report-corrupt: quarantined, its job re-queued, and never diffed as if
// it were the stored result.
func TestHTTPDiffCorruptReport503(t *testing.T) {
	svc, ts := startHTTP(t, Config{}, true)
	a := runToDone(t, svc, 10)
	b := runToDone(t, svc, 11)
	bumpLastDigit(t, svc.Store().ReportPath(a.ID))

	getCorrupt(t, ts, fmt.Sprintf("/v1/diff?a=%s&b=%s", a.ID, b.ID))
	if _, err := os.Stat(svc.Store().ReportPath(a.ID) + ".quarantine"); err != nil {
		t.Fatalf("corrupt report was not quarantined: %v", err)
	}
	if healed := waitState(t, svc, a.ID, StateDone); healed.Attempts != 2 {
		t.Fatalf("job %s ran %d times, want a second, healing run", a.ID, healed.Attempts)
	}
}

// TestReportVerifiedAgainstEveryWitness: a done job's report bytes and its
// record hash replaced consistently, with the ledger untouched, are refused
// by the read path and by the scrubber alike: the ledger's report entry is
// a witness too, whether or not the record has a hash.
func TestReportVerifiedAgainstEveryWitness(t *testing.T) {
	svc, ts := startHTTP(t, Config{}, true)
	rec := runToDone(t, svc, 10)
	forge := func() {
		t.Helper()
		rec, _ = svc.Store().Get(rec.ID)
		rec.ReportHash = bumpLastDigit(t, svc.Store().ReportPath(rec.ID))
		if err := svc.Store().Put(rec); err != nil {
			t.Fatal(err)
		}
	}

	forge()
	getCorrupt(t, ts, "/v1/jobs/"+rec.ID+"/report")
	waitState(t, svc, rec.ID, StateDone)

	forge()
	if stats := svc.Scrub(); stats.Corrupt != 1 || len(stats.Requeued) != 1 {
		t.Fatalf("scrub over a forged record and report: %+v, want 1 corrupt and re-queued", stats)
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
// path: with no daemon running, Store.Scrub flips the damaged job back to
// queued durably, and the next daemon start re-runs it.
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
	stats := st.Scrub(nil)
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

// TestCorruptReportWhileDrainingRequeuesDurably: a corrupt report read
// while the service drains is a 503 like any other, and its job goes back
// to queued in the store although the closed queue cannot take it. A
// cancel of the job does not claim success without taking effect. The
// reopened store holds the job queued before Start, and the next start
// re-runs it to the original bytes.
func TestCorruptReportWhileDrainingRequeuesDurably(t *testing.T) {
	const trials = 10
	want := directMonteCarloBytes(t, trials, 2009)
	dir := t.TempDir()
	svc, ts := startHTTP(t, Config{Dir: dir}, true)
	rec := runToDone(t, svc, trials)
	svc.Drain(context.Background())
	bumpLastDigit(t, svc.Store().ReportPath(rec.ID))

	resp, err := http.Get(ts.URL + "/v1/jobs/" + rec.ID + "/report")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("corrupt report read while draining served %d, want 503", resp.StatusCode)
	}
	if got, ok := svc.Cancel(rec.ID); ok && got.State != StateCanceled {
		t.Fatalf("Cancel of the re-queued job reported success and left it %s", got.State)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}

	svc2, err := New(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()
	if got, _ := svc2.Store().Get(rec.ID); got.State != StateQueued {
		t.Fatalf("job reopened %s after a corrupt read while draining, want queued", got.State)
	}
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
	lacks := svc.coord.sets[rec.ID].units.Lacks(0, trials)
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

// TestLegacyLogsUpgrade opens stores written before this layout: an intake
// WAL and run ledger in the unframed encoding that predates
// bankaware.log/v1, and a store keeping job records in per-job files. The
// records load unchanged, the ledger root is unchanged, every log is framed
// afterwards, and the old files are gone.
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
