package service

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"bankaware/internal/atomicio"
	"bankaware/internal/ledger"
	"bankaware/internal/metrics"
)

// ErrCorrupt reports a stored report whose bytes no longer match their
// recorded content hash — bit-rot, truncation or tampering. The read path
// quarantines the file before returning it, and the HTTP layer maps the
// error to 503 + Retry-After (the job self-heals by re-running) rather
// than serving poison or a generic 500.
var ErrCorrupt = errors.New("service: stored artifact corrupt")

// Job states. A job is terminal in StateDone, StateFailed or StateCanceled;
// StateQueued and StateRunning survive restarts as "re-enqueue me".
const (
	StateQueued   = "queued"
	StateRunning  = "running"
	StateDone     = "done"
	StateFailed   = "failed"
	StateCanceled = "canceled"
)

// JobRecord is the durable face of one job: the spec as submitted, the
// current state, and coarse lifecycle timestamps. Every state change is
// appended to the job log before it is announced, so a crashed or drained
// daemon restarts into a consistent picture: terminal jobs serve their
// stored reports, queued and running (i.e. interrupted) jobs re-enqueue.
type JobRecord struct {
	ID   string  `json:"id"`
	Seq  int     `json:"seq"`
	Spec JobSpec `json:"spec"`
	// State is one of the State* constants.
	State string `json:"state"`
	// Error carries the failure message for StateFailed.
	Error string `json:"error,omitempty"`
	// Attempts counts how many times the job entered StateRunning (a
	// drain-interrupted job that resumes counts twice).
	Attempts int `json:"attempts,omitempty"`

	// SpecHash is the canonical content hash of the spec (SpecHash): the
	// key of the content-addressed result cache and of spec-hash dedup.
	// Recomputed from the spec on load, so old stores pick it up.
	SpecHash string `json:"specHash,omitempty"`
	// IdempotencyKey is the client-supplied Idempotency-Key the job was
	// submitted under, when there was one; it overrides spec-hash dedup.
	IdempotencyKey string `json:"idempotencyKey,omitempty"`
	// ReportHash is the SHA-256 of the stored report bytes for StateDone
	// jobs — the source of the report endpoint's ETag.
	ReportHash string `json:"reportHash,omitempty"`

	SubmittedAt time.Time `json:"submittedAt"`
	StartedAt   time.Time `json:"startedAt"`
	FinishedAt  time.Time `json:"finishedAt"`
}

// Terminal reports whether the record's state is final.
func (r *JobRecord) Terminal() bool {
	return r.State == StateDone || r.State == StateFailed || r.State == StateCanceled
}

// dedupable reports whether the record may serve as a dedup/cache target: a
// failed or canceled job must not absorb a resubmission of the same spec.
func (r *JobRecord) dedupable() bool {
	return r.State == StateQueued || r.State == StateRunning || r.State == StateDone
}

// jobLogName is the job log, relative to the store root. It keeps the name
// from when it held only freshly accepted jobs, so older stores still open.
const jobLogName = "intake.wal"

// walCompactBytes is the floor of the job log's compaction threshold
// (atomicio.Log.Due doubles it from the compacted size, so a large live
// set cannot turn O(1) appends into O(n) rewrites). Compaction keeps the
// latest line per job; it is a variable only so tests can shrink it.
var walCompactBytes int64 = 4 << 20

// Store is the daemon's durable result store: the job log (intake.wal), the
// finished run reports under reports/, each unfinished job's unit journal
// under journals/, and the run ledger. A coordinator keeps nothing else on
// disk: it derives a job's shard plan from the spec and holds its leases in
// memory. The job log is the only durable copy of job state: every
// intake, transition and heal appends one checksummed JobRecord line
// through Put (concurrent Puts share one fsync), and a job's state is its
// last verified line.
type Store struct {
	dir string
	// led is the tamper-evident run ledger (ledger.log): every job
	// transition and stored report hash appends an entry, and its Merkle
	// root is the integrity commitment /healthz exposes.
	led *ledger.Ledger

	// token is the one-slot commit token. Its holder alone writes the job
	// log: a Put committing the queue, a scrub's quarantine and rewrite, or
	// Close. The committer updates the in-memory view before it hands the
	// token back, so memory order is log order, and readers take only mu,
	// never waiting on an fsync.
	token chan struct{}
	wal   *atomicio.Log
	// commits counts job-log commits, one fsync each.
	commits metrics.Counter
	// crashAt, when non-nil, runs at both edges of every commit: before any
	// byte is written (durable false) and once the batch is synced and
	// visible (durable true). An error fails every Put of the batch, as a
	// crash at that point would. The crash-recovery tests set it.
	crashAt func(durable bool) error

	mu sync.Mutex
	// queue holds the Puts waiting for the next commit; closed refuses new
	// ones.
	queue  []*putReq
	closed bool
	jobs   map[string]JobRecord
	order  []orderRef // ascending Seq; backs pagination
	// dedup maps "spec:<hash>" and "idem:<key>" to the job ID that serves
	// duplicates of that submission (the content-addressed result cache
	// once the job is done). Failed and canceled jobs are evicted so a
	// resubmission re-executes.
	dedup map[string]string
	seq   int
}

// orderRef is one entry of the seq-ordered job index.
type orderRef struct {
	seq int
	id  string
}

// OpenStore opens (or initialises) the store rooted at dir. It replays the
// job log (truncating a torn tail: an append that never synced was never
// acked) and imports the per-job files of older stores. A damaged log keeps
// its verified lines and is quarantined, then every job the ledger
// witnessed without a verified record is answered for (failLostRecords).
// So is every such job when the log is missing, as a crash between a
// quarantine rename and the rewrite leaves it. The log is rewritten only
// when damaged, after an import, or when due.
func OpenStore(dir string) (*Store, error) {
	for _, sub := range []string{"reports", "journals"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("service: initialising store: %w", err)
		}
	}
	st := &Store{
		dir:   dir,
		token: make(chan struct{}, 1),
		jobs:  make(map[string]JobRecord),
		dedup: make(map[string]string),
	}
	logPath := filepath.Join(dir, jobLogName)
	_, err := os.Stat(logPath)
	missing := os.IsNotExist(err)
	st.wal, err = atomicio.OpenLog(logPath, func(line []byte) error {
		rec, err := decodeRecord(line)
		if err == nil {
			st.jobs[rec.ID] = rec
		}
		return err
	})
	damaged := errors.Is(err, atomicio.ErrCorrupt)
	if err != nil && !damaged {
		return nil, fmt.Errorf("service: opening job log: %w", err)
	}
	legacy, err := st.importLegacy()
	if err != nil {
		return nil, err
	}
	for id, rec := range st.jobs {
		// The hash is canonical, not archival: recompute so records written
		// before content addressing (or under an older hash version) index
		// correctly. A lost record keeps the hash the ledger witnessed.
		if !rec.lost() {
			rec.SpecHash = SpecHash(rec.Spec)
			st.jobs[id] = rec
		}
		st.seq = max(st.seq, rec.Seq)
		st.order = append(st.order, orderRef{seq: rec.Seq, id: id})
	}
	sort.Slice(st.order, func(i, j int) bool { return st.order[i].seq < st.order[j].seq })
	for _, ref := range st.order {
		st.indexLocked(st.jobs[ref.id])
	}
	if damaged || len(legacy) > 0 || st.wal.Due(walCompactBytes) {
		if err := st.compact(); err != nil {
			return nil, err
		}
	}
	// The log holds the imported records now; a crash before this point
	// imports the same records again.
	for _, path := range legacy {
		if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
			return nil, fmt.Errorf("service: removing imported job record: %w", err)
		}
	}
	// Fails, harmlessly, when absent or kept by quarantined records.
	_ = os.Remove(filepath.Join(dir, "jobs"))
	if err := st.openLedger(); err != nil {
		return nil, err
	}
	if damaged || missing || len(legacy) > 0 {
		if err := st.failLostRecords(); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// decodeRecord decodes one stored job record and checks that it is whole:
// its ID is the one AllocRecord gives its sequence number, and its spec
// validates, unless it is the lost-record failure, which has no spec.
func decodeRecord(data []byte) (JobRecord, error) {
	var rec JobRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		return rec, err
	}
	if rec.ID != fmt.Sprintf("job-%06d", rec.Seq) {
		return rec, fmt.Errorf("service: job record %q has sequence %d", rec.ID, rec.Seq)
	}
	if rec.lost() {
		return rec, nil
	}
	return rec, rec.Spec.Validate()
}

// importLegacy loads the per-job files (jobs/<id>.json) of a store written
// before the job log held every transition, and returns their paths. Such
// a file is newer than any log line of its job, so it wins. A file that
// does not decode is quarantined, and its job recovers like any job whose
// record was lost.
func (s *Store) importLegacy() ([]string, error) {
	// The pattern is constant, so Glob cannot fail.
	paths, _ := filepath.Glob(filepath.Join(s.dir, "jobs", "*.json"))
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("service: reading job record: %w", err)
		}
		if rec, err := decodeRecord(data); err == nil {
			s.jobs[rec.ID] = rec
		} else if qerr := quarantineFile(path); qerr != nil {
			return nil, fmt.Errorf("service: quarantining job record: %v (detected: %v)", qerr, err)
		}
	}
	return paths, nil
}

// lostRecordError is the failure recorded for a job whose every record was
// lost to corruption.
const lostRecordError = "intake record corrupt; resubmit"

// lost reports whether r is the lost-record failure: the one record that
// has no spec.
func (r *JobRecord) lost() bool { return r.State == StateFailed && r.Error == lostRecordError }

// failLostRecords persists as failed every job the ledger witnessed that
// has no verified record: its spec is gone, but its ID keeps answering
// instead of returning 404.
func (s *Store) failLostRecords() error {
	for i, n := 0, s.led.Len(); i < n; i++ {
		e, _ := s.led.Entry(i)
		_, known := s.Get(e.Job)
		var seq int // IDs are job-<seq> (AllocRecord)
		if known || e.Type != ledger.TypeJob {
			continue
		}
		if _, err := fmt.Sscanf(e.Job, "job-%d", &seq); err != nil {
			continue
		}
		if err := s.Put(JobRecord{ID: e.Job, Seq: seq, State: StateFailed,
			Error: lostRecordError, SpecHash: e.Hash, FinishedAt: time.Now().UTC()}); err != nil {
			return err
		}
		// Never hand the lost job's ID to a new submission.
		s.seq = max(s.seq, seq)
	}
	return nil
}

// ledgerPath returns where the run ledger lives.
func (s *Store) ledgerPath() string { return filepath.Join(s.dir, "ledger.log") }

// openLedger opens the store's run ledger, handling the two degraded
// cases: a corrupt ledger is quarantined (renamed, never deleted) and
// rebuilt, and an empty ledger over a non-empty store (a pre-ledger store,
// or the rebuild after a quarantine) is bootstrapped from the stored
// records — the root is reproducible from the store.
func (s *Store) openLedger() error {
	led, err := ledger.Open(s.ledgerPath())
	if errors.Is(err, ledger.ErrCorrupt) {
		quarantined := s.ledgerPath() + ".quarantine"
		if rerr := os.Rename(s.ledgerPath(), quarantined); rerr != nil {
			return fmt.Errorf("service: quarantining corrupt ledger: %v (detected: %w)", rerr, err)
		}
		led, err = ledger.Open(s.ledgerPath())
	}
	if err != nil {
		return fmt.Errorf("service: opening run ledger: %w", err)
	}
	s.led = led
	if led.Len() > 0 || len(s.order) == 0 {
		return nil
	}
	// Rebuild: one entry per stored job at its current state, plus the
	// report hash of every finished job (hashing the stored bytes, so a
	// rebuilt root vouches for what is actually on disk).
	var recs []ledger.Record
	for _, ref := range s.order {
		rec := s.jobs[ref.id]
		recs = append(recs, ledger.Record{
			Type: ledger.TypeJob, Job: rec.ID, Data: rec.State, Hash: rec.SpecHash,
		})
		if rec.State != StateDone {
			continue
		}
		data, err := os.ReadFile(s.ReportPath(rec.ID))
		if err != nil {
			continue // scrub will flag the missing report
		}
		sum := sha256.Sum256(data)
		recs = append(recs, ledger.Record{
			Type: ledger.TypeReport, Job: rec.ID, Hash: hex.EncodeToString(sum[:]),
		})
	}
	if _, err := led.AppendBatch(recs, true); err != nil {
		return fmt.Errorf("service: rebuilding run ledger: %w", err)
	}
	return nil
}

// Ledger exposes the store's run ledger (proof endpoint, health root,
// scrub cross-checks).
func (s *Store) Ledger() *ledger.Ledger { return s.led }

// indexLocked folds one record into the dedup index. Callers hold s.mu and
// present records in ascending seq order on rebuild. A done job always wins
// its keys (it holds the cached report); otherwise the first live claimant
// keeps them; failed/canceled jobs release theirs.
func (s *Store) indexLocked(rec JobRecord) {
	keys := []string{dedupKey(rec.SpecHash, "")}
	if rec.IdempotencyKey != "" {
		keys = append(keys, dedupKey("", rec.IdempotencyKey))
	}
	for _, key := range keys {
		if !rec.dedupable() {
			if s.dedup[key] == rec.ID {
				delete(s.dedup, key)
			}
			continue
		}
		cur, ok := s.dedup[key]
		if !ok || cur == rec.ID {
			s.dedup[key] = rec.ID
			continue
		}
		if holder := s.jobs[cur]; holder.State != StateDone && rec.State == StateDone {
			s.dedup[key] = rec.ID
		}
	}
}

// orderInsertLocked adds id/seq to the seq-sorted index (no-op when
// present). Appends are the common case; out-of-order insertion only
// happens when concurrent submissions commit in different batches.
func (s *Store) orderInsertLocked(seq int, id string) {
	i := sort.Search(len(s.order), func(i int) bool { return s.order[i].seq >= seq })
	if i < len(s.order) && s.order[i].seq == seq {
		return
	}
	s.order = append(s.order, orderRef{})
	copy(s.order[i+1:], s.order[i:])
	s.order[i] = orderRef{seq: seq, id: id}
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// AllocRecord allocates the next job ID for a freshly submitted spec. The
// record is not yet registered anywhere — it becomes visible (and durable)
// only when a batch containing it commits through Put.
func (s *Store) AllocRecord(spec JobSpec, specHash, idemKey string, now time.Time) JobRecord {
	s.mu.Lock()
	s.seq++
	seq := s.seq
	s.mu.Unlock()
	return JobRecord{
		ID:             fmt.Sprintf("job-%06d", seq),
		Seq:            seq,
		Spec:           spec,
		State:          StateQueued,
		SpecHash:       specHash,
		IdempotencyKey: idemKey,
		SubmittedAt:    now.UTC(),
	}
}

// errClosed fails a Put or a SaveReport on a closed store.
var errClosed = errors.New("service: store closed")

// putReq is one Put waiting for the commit that writes its records. err is
// set before done closes.
type putReq struct {
	recs  []JobRecord
	lines [][]byte
	done  chan struct{}
	err   error
}

// Put appends recs to the job log, ledgers them, and updates the in-memory
// view and dedup index; it returns once they are durable. Concurrent Puts
// share one commit: each queues its encoded records, and the caller that
// wins the commit token writes the whole queue with one job-log write and
// fsync and one ledger append, while the others wait for it. The ledger
// syncs only when the batch holds a terminal record, so a "done" a client
// acts on never vanishes from it; queued entries ride along on the next
// synced append. On failure the view is unchanged, and unsynced log bytes
// recover as a torn, unacked tail. A closed store refuses the write.
func (s *Store) Put(recs ...JobRecord) error {
	req := &putReq{recs: recs, lines: make([][]byte, len(recs)), done: make(chan struct{})}
	for i, rec := range recs {
		line, err := json.Marshal(rec)
		if err != nil {
			return fmt.Errorf("service: encoding job record %s: %w", rec.ID, err)
		}
		req.lines[i] = line
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return errClosed
	}
	s.queue = append(s.queue, req)
	s.mu.Unlock()
	select {
	case <-req.done:
		return req.err
	case s.token <- struct{}{}:
	}
	// Let every runnable Put queue before the batch is cut. Without the
	// yield the first Put of a burst commits alone and the rest wait for a
	// second fsync. One yield costs about a microsecond; an fsync costs
	// hundreds.
	runtime.Gosched()
	s.mu.Lock()
	batch := s.queue
	s.queue = nil
	s.mu.Unlock()
	// Empty when an earlier commit took this Put's records.
	if len(batch) > 0 {
		err := s.commit(batch)
		for _, r := range batch {
			r.err = err
			close(r.done)
		}
	}
	<-s.token
	return req.err
}

// commit writes one batch of queued Puts. The caller holds the token.
func (s *Store) commit(batch []*putReq) error {
	var lines [][]byte
	var lrecs []ledger.Record
	terminal := false
	for _, req := range batch {
		lines = append(lines, req.lines...)
		for _, rec := range req.recs {
			lrecs = append(lrecs, ledger.Record{Type: ledger.TypeJob, Job: rec.ID, Data: rec.State, Hash: rec.SpecHash})
			terminal = terminal || rec.Terminal()
		}
	}
	if s.crashAt != nil {
		if err := s.crashAt(false); err != nil {
			return err
		}
	}
	if err := s.wal.Append(lines, true); err != nil {
		return fmt.Errorf("service: appending to job log: %w", err)
	}
	s.commits.Inc()
	if _, err := s.led.AppendBatch(lrecs, terminal); err != nil {
		return err
	}
	s.mu.Lock()
	for _, req := range batch {
		for _, rec := range req.recs {
			s.jobs[rec.ID] = rec
			s.orderInsertLocked(rec.Seq, rec.ID)
			s.indexLocked(rec)
		}
	}
	s.mu.Unlock()
	if s.wal.Due(walCompactBytes) {
		// The records are durable; a failed compaction only costs space.
		_ = s.compact()
	}
	if s.crashAt != nil {
		return s.crashAt(true)
	}
	return nil
}

// compact rewrites the job log down to the latest record per job, in
// submission order. Callers hold the token (or, in OpenStore, the only
// reference to the store).
func (s *Store) compact() error {
	recs := s.Jobs()
	live := make([][]byte, len(recs))
	for i, rec := range recs {
		line, err := json.Marshal(rec)
		if err != nil {
			return err
		}
		live[i] = line
	}
	if err := s.wal.Rewrite(live); err != nil {
		return fmt.Errorf("service: compacting job log: %w", err)
	}
	return nil
}

// Get returns the record for id.
func (s *Store) Get(id string) (JobRecord, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec, ok := s.jobs[id]
	return rec, ok
}

// DedupLookup resolves a dedup key ("spec:<hash>" or "idem:<key>") to the
// job currently serving duplicates of that submission.
func (s *Store) DedupLookup(key string) (JobRecord, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	id, ok := s.dedup[key]
	if !ok {
		return JobRecord{}, false
	}
	rec, ok := s.jobs[id]
	return rec, ok
}

// Jobs returns every record, sorted by submission sequence.
func (s *Store) Jobs() []JobRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JobRecord, 0, len(s.order))
	for _, ref := range s.order {
		out = append(out, s.jobs[ref.id])
	}
	return out
}

// JobsPage returns up to limit records in submission order, restricted to
// state when non-empty, starting strictly after afterSeq. lastSeq is the
// sequence of the final returned record (the next page's cursor).
func (s *Store) JobsPage(state string, afterSeq, limit int) (recs []JobRecord, lastSeq int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	i := sort.Search(len(s.order), func(i int) bool { return s.order[i].seq > afterSeq })
	for ; i < len(s.order) && len(recs) < limit; i++ {
		rec := s.jobs[s.order[i].id]
		if state != "" && rec.State != state {
			continue
		}
		recs = append(recs, rec)
		lastSeq = rec.Seq
	}
	return recs, lastSeq
}

// ReportPath returns where id's run report lives.
func (s *Store) ReportPath(id string) string {
	return filepath.Join(s.dir, "reports", id+".json")
}

// JournalPath returns where id's unit journal lives: every finished unit
// of the job, keyed by unit index, until the job is terminal.
func (s *Store) JournalPath(id string) string {
	return filepath.Join(s.dir, "journals", id+".journal")
}

// removeUnits deletes id's unit journal, once the job is terminal. A
// quarantined copy stays as evidence. A failed removal costs only space,
// so it is not reported: a re-run of the job would restore the same units.
func (s *Store) removeUnits(id string) {
	os.Remove(s.JournalPath(id))
}

// SaveReport persists a finished job's report atomically and returns the
// SHA-256 of the stored bytes (JobRecord.ReportHash, the ETag source). The
// stored bytes are exactly Report.WriteJSON's output, so fetching a report
// returns the same bytes a direct bankaware.Runner run would have written.
// A closed store refuses the write; one racing Close may leave the report
// file, but its closed ledger takes no entry.
func (s *Store) SaveReport(id string, rep *metrics.Report) (string, error) {
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return "", errClosed
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		return "", fmt.Errorf("service: rendering report for %s: %w", id, err)
	}
	if err := atomicio.WriteFileBytes(s.ReportPath(id), buf.Bytes()); err != nil {
		return "", fmt.Errorf("service: persisting report for %s: %w", id, err)
	}
	sum := sha256.Sum256(buf.Bytes())
	hash := hex.EncodeToString(sum[:])
	// The report entry is the leaf a client's end-to-end verification
	// lands on; it must be durable before the job is announced done.
	if _, err := s.led.Append(ledger.Record{
		Type: ledger.TypeReport, Job: id, Hash: hash,
	}, true); err != nil {
		return "", err
	}
	return hash, nil
}

// ReportBytes returns the stored report verbatim, with integrity
// verification (verifyReport). A mismatch — bit-rot, truncation, a torn
// external copy — quarantines the file and returns ErrCorrupt, so corrupt
// bytes are never served as valid.
func (s *Store) ReportBytes(id string) ([]byte, error) {
	data, err := os.ReadFile(s.ReportPath(id))
	if err != nil {
		if os.IsNotExist(err) {
			if _, qerr := os.Stat(s.ReportPath(id) + ".quarantine"); qerr == nil {
				// Quarantined but not yet healed: corrupt, not merely absent.
				return nil, fmt.Errorf("%w: report for %s is quarantined", ErrCorrupt, id)
			}
		}
		return nil, err
	}
	s.mu.Lock()
	want := s.jobs[id].ReportHash
	s.mu.Unlock()
	if detail := s.verifyReport(id, want, data); detail != "" {
		if qerr := quarantineFile(s.ReportPath(id)); qerr != nil {
			return nil, fmt.Errorf("%w: %s (quarantine failed: %v)", ErrCorrupt, detail, qerr)
		}
		return nil, fmt.Errorf("%w: %s (quarantined)", ErrCorrupt, detail)
	}
	return data, nil
}

// verifyReport checks data, job id's stored report, against every witness
// that exists: recordHash (the job record's ReportHash) and the ledger's
// latest report entry for the job. The record and the report could rot
// together; the ledger is an independent witness. It returns what the
// bytes contradict, or "" when they match every witness, or when neither
// witness exists (a report stored before either did).
func (s *Store) verifyReport(id, recordHash string, data []byte) string {
	sum := sha256.Sum256(data)
	got := hex.EncodeToString(sum[:])
	if recordHash != "" && got != recordHash {
		return fmt.Sprintf("report for %s hashes to %s, its record says %s", id, got, recordHash)
	}
	if e, ok := s.led.LatestReport(id); ok && got != e.Hash {
		return fmt.Sprintf("report for %s hashes to %s, the ledger says %s", id, got, e.Hash)
	}
	return ""
}

// quarantineFile moves a corrupt artifact aside as <path>.quarantine —
// never a silent deletion; the bytes stay on disk as evidence while the
// original path frees up for a clean re-run to heal.
func quarantineFile(path string) error {
	return os.Rename(path, path+".quarantine")
}

// ReportETag returns the strong ETag of id's stored report, from its
// record's content hash. A record written before report hashing existed
// has none: the stored bytes are hashed once and the hash kept in the
// in-memory record.
func (s *Store) ReportETag(id string) (string, error) {
	s.mu.Lock()
	hash := s.jobs[id].ReportHash
	s.mu.Unlock()
	if hash != "" {
		return reportETag(hash), nil
	}
	data, err := s.ReportBytes(id)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	hash = hex.EncodeToString(sum[:])
	s.mu.Lock()
	if rec, ok := s.jobs[id]; ok && rec.ReportHash == "" {
		rec.ReportHash = hash
		s.jobs[id] = rec
	}
	s.mu.Unlock()
	return reportETag(hash), nil
}

// reportETag formats a report content hash as a strong HTTP ETag.
func reportETag(hash string) string { return `"sha256-` + hash + `"` }

// Close waits for the commit in flight, fails the Puts still queued, and
// releases the job log handle and the run ledger (syncing any buffered
// observational entries). Every later Put fails, and a second Close does
// nothing. Reports are plain files; nothing else needs teardown.
func (s *Store) Close() error {
	s.token <- struct{}{}
	defer func() { <-s.token }()
	s.mu.Lock()
	wasClosed := s.closed
	s.closed = true
	queued := s.queue
	s.queue = nil
	s.mu.Unlock()
	for _, req := range queued {
		req.err = errClosed
		close(req.done)
	}
	if wasClosed {
		return nil
	}
	return errors.Join(s.wal.Close(), s.led.Close())
}
