package service

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"bankaware/internal/atomicio"
)

// This file is the store scrubber: the proactive half of the integrity
// layer (the verified read paths are the lazy half). Scrub walks the
// durable artifacts — the job log and finished reports — re-verifies them
// against their checksums, the run ledger and the job records, and
// quarantines anything that no longer matches (a rename to *.quarantine,
// never a silent deletion). When the corrupted artifact backed a finished
// job whose spec is still stored, the job re-queues: determinism makes the
// re-run reproduce the original bytes, so the system heals from bit-rot
// instead of serving poison. A job's unit journal needs no pass: its job
// verifies every record each time it opens the journal.

// ScrubStats summarises one scrub pass (also served on /healthz as
// last_scrub).
type ScrubStats struct {
	StartedAt  time.Time `json:"startedAt"`
	DurationMS int64     `json:"durationMs"`
	// Checked counts artifacts whose bytes were re-hashed or re-parsed.
	Checked int `json:"checked"`
	// Corrupt counts artifacts that failed verification this pass.
	Corrupt int `json:"corrupt"`
	// Quarantined lists the files moved aside (paths relative to the store).
	Quarantined []string `json:"quarantined,omitempty"`
	// Requeued lists jobs sent back to the queue to recompute their report.
	Requeued []string `json:"requeued,omitempty"`
	// Skipped counts artifacts left untouched because their job was live
	// (queued or running) during the pass.
	Skipped int `json:"skipped,omitempty"`
	// Errors lists non-integrity failures (I/O) the pass hit and moved past.
	Errors []string `json:"errors,omitempty"`
}

// Scrub verifies every stored artifact not named in skip (live jobs whose
// files are in flux). requeue controls what happens to a finished job whose
// report failed verification: when true the record transitions back to
// StateQueued (the offline `bankawared scrub -dir` mode — the next daemon
// start re-enqueues it); when false the record is left for the caller to
// heal (the in-daemon path, which re-queues through the service so the job
// re-executes immediately).
func (s *Store) Scrub(skip map[string]bool, requeue bool) ScrubStats {
	start := time.Now()
	stats := ScrubStats{StartedAt: start.UTC()}
	s.scrubLog(&stats)
	for _, rec := range s.Jobs() {
		if skip[rec.ID] {
			stats.Skipped++
			continue
		}
		s.scrubJob(rec, requeue, &stats)
	}
	stats.DurationMS = time.Since(start).Milliseconds()
	return stats
}

// scrubLog replays the job log read-only; an append racing the read leaves
// at most a torn tail, which Replay ignores. The records in memory are what
// the log last wrote, so a damaged log is quarantined and rewritten from
// them under the write mutex: the store reopens with every record intact.
func (s *Store) scrubLog(stats *ScrubStats) {
	stats.Checked++
	path := filepath.Join(s.dir, jobLogName)
	err := atomicio.Replay(path, func(line []byte) error {
		_, err := decodeRecord(line)
		return err
	})
	if errors.Is(err, atomicio.ErrCorrupt) {
		stats.Corrupt++
		s.wmu.Lock()
		if err = quarantineFile(path); err == nil {
			stats.Quarantined = append(stats.Quarantined, jobLogName)
			err = s.compact()
		}
		s.wmu.Unlock()
	}
	if err != nil {
		stats.Errors = append(stats.Errors, fmt.Sprintf("job log: %v", err))
	}
}

// scrubJob verifies one finished job's report.
func (s *Store) scrubJob(rec JobRecord, requeue bool, stats *ScrubStats) {
	if rec.State != StateDone {
		return
	}
	stats.Checked++
	data, err := os.ReadFile(s.ReportPath(rec.ID))
	if err != nil {
		if os.IsNotExist(err) {
			// Lost or already-quarantined report: nothing to move aside, but
			// the job must recompute it.
			stats.Corrupt++
			s.healReport(rec, requeue, stats)
			return
		}
		stats.Errors = append(stats.Errors, fmt.Sprintf("report %s: %v", rec.ID, err))
		return
	}
	sum := sha256.Sum256(data)
	got := hex.EncodeToString(sum[:])
	ok := rec.ReportHash == "" || got == rec.ReportHash
	// Cross-check the ledger: the record file and the report could rot
	// together; the ledger's synced report entry is an independent witness.
	if e, found := s.led.LatestReport(rec.ID); found && got != e.Hash {
		ok = false
	}
	if ok {
		return
	}
	stats.Corrupt++
	if qerr := quarantineFile(s.ReportPath(rec.ID)); qerr != nil {
		stats.Errors = append(stats.Errors, fmt.Sprintf("report %s: quarantine: %v", rec.ID, qerr))
		return
	}
	stats.Quarantined = append(stats.Quarantined, filepath.Join("reports", rec.ID+".json"))
	s.healReport(rec, requeue, stats)
}

// healReport re-queues a job whose report was lost to corruption, when
// asked to (the offline scrub path; the daemon re-queues via the service).
func (s *Store) healReport(rec JobRecord, requeue bool, stats *ScrubStats) {
	if !requeue {
		return
	}
	rec.State = StateQueued
	rec.ReportHash = ""
	rec.Error = ""
	if err := s.Put(rec); err != nil {
		stats.Errors = append(stats.Errors, fmt.Sprintf("job %s: re-queueing: %v", rec.ID, err))
		return
	}
	stats.Requeued = append(stats.Requeued, rec.ID)
}

// Scrub runs one scrub pass over the daemon's store, skipping live jobs,
// and re-queues every finished job whose report failed verification so the
// fleet recomputes it. The pass is low-priority by construction: it only
// reads and re-hashes, and the re-runs go through the ordinary queue.
func (s *Service) Scrub() ScrubStats {
	// Serialise passes: overlapping scrubs would race their quarantine
	// renames and double-queue heals.
	s.healMu.Lock()
	defer s.healMu.Unlock()
	skip := make(map[string]bool)
	s.mu.Lock()
	for id, jb := range s.jobs {
		jb.mu.Lock()
		if jb.phase != "finished" {
			skip[id] = true
		}
		jb.mu.Unlock()
	}
	s.mu.Unlock()
	stats := s.store.Scrub(skip, false)
	for _, rel := range stats.Quarantined {
		if job, ok := quarantinedReportJob(rel); ok {
			if s.requeueCorruptLocked(job) {
				stats.Requeued = append(stats.Requeued, job)
			}
		}
	}
	// Reports that vanished without a quarantine (already moved aside by a
	// prior read-path detection) still need their jobs healed.
	for _, rec := range s.store.Jobs() {
		if rec.State != StateDone || skip[rec.ID] {
			continue
		}
		if _, err := os.Stat(s.store.ReportPath(rec.ID)); os.IsNotExist(err) {
			if s.requeueCorruptLocked(rec.ID) {
				stats.Requeued = append(stats.Requeued, rec.ID)
			}
		}
	}
	s.scrubRuns.Inc()
	s.scrubCorrupt.Add(uint64(stats.Corrupt))
	s.mu.Lock()
	s.lastScrub = &stats
	s.mu.Unlock()
	return stats
}

// quarantinedReportJob extracts the job ID from a quarantined report's
// store-relative path.
func quarantinedReportJob(rel string) (string, bool) {
	dir, file := filepath.Split(rel)
	if filepath.Clean(dir) != "reports" {
		return "", false
	}
	id, ok := strings.CutSuffix(file, ".json")
	return id, ok
}

// RequeueCorrupt heals one finished job whose stored report was detected
// corrupt: the record returns to StateQueued (clearing the stale report
// hash) and re-enters the queue, so the deterministic re-run replaces the
// quarantined bytes with fresh, identical ones. It reports whether the
// job was re-queued (false: unknown, not done, draining, or queue full).
func (s *Service) RequeueCorrupt(id string) bool {
	s.healMu.Lock()
	defer s.healMu.Unlock()
	return s.requeueCorruptLocked(id)
}

// requeueCorruptLocked is RequeueCorrupt under healMu.
func (s *Service) requeueCorruptLocked(id string) bool {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		// Leave the record as-is; the next daemon's scrub heals it.
		return false
	}
	rec, ok := s.store.Get(id)
	if !ok || rec.State != StateDone {
		return false
	}
	rec.State = StateQueued
	rec.ReportHash = ""
	rec.Error = ""
	if err := s.store.Put(rec); err != nil {
		return false
	}
	jb := s.newRuntime(rec)
	if err := s.queue.push(jb); err != nil {
		// Queue full or closed: the record is durably queued, so the next
		// start picks it up; nothing more to do now.
		return true
	}
	jb.hub.publish(EventState, stateEvent{State: StateQueued, Detail: "re-queued after corruption"})
	s.healed.Inc()
	return true
}

// scrubLoop runs background scrub passes every interval until the service
// shuts down.
func (s *Service) scrubLoop(interval time.Duration) {
	defer s.wg.Done()
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-s.baseCtx.Done():
			return
		case <-ticker.C:
			if !s.Draining() {
				s.Scrub()
			}
		}
	}
}

// LastScrub returns the most recent scrub pass's stats, if any.
func (s *Service) LastScrub() *ScrubStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastScrub
}
