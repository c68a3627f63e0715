package service

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
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
// files are in flux). A finished job whose report is missing or failed
// verification goes back to StateQueued durably (requeue): the offline
// `bankawared scrub -dir` leaves it for the next daemon start to
// re-enqueue, and Service.Scrub enqueues it at once.
func (s *Store) Scrub(skip map[string]bool) ScrubStats {
	start := time.Now()
	stats := ScrubStats{StartedAt: start.UTC()}
	s.scrubLog(&stats)
	for _, rec := range s.Jobs() {
		if skip[rec.ID] {
			stats.Skipped++
			continue
		}
		s.scrubJob(rec, &stats)
	}
	stats.DurationMS = time.Since(start).Milliseconds()
	return stats
}

// scrubLog replays the job log read-only; an append racing the read leaves
// at most a torn tail, which Replay ignores. The records in memory are what
// the log last wrote, so a damaged log is quarantined and rewritten from
// them under the commit token: the store reopens with every record intact.
func (s *Store) scrubLog(stats *ScrubStats) {
	stats.Checked++
	path := filepath.Join(s.dir, jobLogName)
	err := atomicio.Replay(path, func(line []byte) error {
		_, err := decodeRecord(line)
		return err
	})
	if errors.Is(err, atomicio.ErrCorrupt) {
		stats.Corrupt++
		s.token <- struct{}{}
		if err = quarantineFile(path); err == nil {
			stats.Quarantined = append(stats.Quarantined, jobLogName)
			err = s.compact()
		}
		<-s.token
	}
	if err != nil {
		stats.Errors = append(stats.Errors, fmt.Sprintf("job log: %v", err))
	}
}

// scrubJob verifies one finished job's report. A report that fails
// verification is quarantined, and a job whose report is quarantined or
// missing re-queues.
func (s *Store) scrubJob(rec JobRecord, stats *ScrubStats) {
	if rec.State != StateDone {
		return
	}
	stats.Checked++
	path := s.ReportPath(rec.ID)
	data, err := os.ReadFile(path)
	switch {
	case os.IsNotExist(err):
		// Lost or already-quarantined report: nothing to move aside, but
		// the job must recompute it.
		stats.Corrupt++
	case err != nil:
		stats.Errors = append(stats.Errors, fmt.Sprintf("report %s: %v", rec.ID, err))
		return
	case s.verifyReport(rec.ID, rec.ReportHash, data) == "":
		return
	default:
		stats.Corrupt++
		if err := quarantineFile(path); err != nil {
			stats.Errors = append(stats.Errors, fmt.Sprintf("report %s: quarantine: %v", rec.ID, err))
			return
		}
		stats.Quarantined = append(stats.Quarantined, filepath.Join("reports", rec.ID+".json"))
	}
	if err := s.requeue(rec.ID); err != nil {
		stats.Errors = append(stats.Errors, fmt.Sprintf("job %s: re-queueing: %v", rec.ID, err))
		return
	}
	stats.Requeued = append(stats.Requeued, rec.ID)
}

// requeue durably returns finished job id to StateQueued after its report
// was lost to corruption, clearing the stale report hash and error: the
// deterministic re-run replaces the quarantined bytes with identical ones.
// It fails for a job that is unknown or not done.
func (s *Store) requeue(id string) error {
	rec, ok := s.Get(id)
	if !ok || rec.State != StateDone {
		return fmt.Errorf("service: job %s is not done", id)
	}
	rec.State = StateQueued
	rec.ReportHash = ""
	rec.Error = ""
	return s.Put(rec)
}

// Scrub runs one scrub pass over the daemon's store, skipping live jobs,
// and enqueues every finished job whose report failed verification so the
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
	stats := s.store.Scrub(skip)
	for _, id := range stats.Requeued {
		s.enqueueHealed(id)
	}
	s.scrubRuns.Inc()
	s.scrubCorrupt.Add(uint64(stats.Corrupt))
	s.mu.Lock()
	s.lastScrub = &stats
	s.mu.Unlock()
	return stats
}

// RequeueCorrupt heals one finished job whose stored report was detected
// corrupt: the record returns to StateQueued durably and re-enters the
// queue, so the deterministic re-run replaces the quarantined bytes with
// fresh, identical ones. It reports whether the record was re-queued
// (false: unknown or not done).
func (s *Service) RequeueCorrupt(id string) bool {
	s.healMu.Lock()
	defer s.healMu.Unlock()
	if s.store.requeue(id) != nil {
		return false
	}
	s.enqueueHealed(id)
	return true
}

// enqueueHealed enqueues a job the store re-queued after corruption. When
// the queue is full or closed (the service drains), the durably queued
// record waits for the next start instead, with no runtime: one that no
// executor will pop would accept a cancel that changes nothing.
func (s *Service) enqueueHealed(id string) {
	if s.queue.reserve() != nil {
		return
	}
	rec, _ := s.store.Get(id)
	jb := s.newRuntime(rec)
	jb.hub.publish(EventState, stateEvent{State: StateQueued, Detail: "re-queued after corruption"})
	s.queue.pushReserved(jb)
	s.healed.Inc()
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
