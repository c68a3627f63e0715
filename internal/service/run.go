package service

import (
	"context"
	"encoding/json"

	"bankaware/internal/metrics"
	"bankaware/internal/runner"
)

// progressEvent is the payload of EventProgress frames: one engine
// notification with the counters after it.
type progressEvent struct {
	Event   string `json:"event"` // started | done | failed
	Job     int    `json:"job"`
	Total   int    `json:"total"`
	Started int    `json:"started"`
	Done    int    `json:"done"`
	Failed  int    `json:"failed"`
	// ElapsedMS is the finished job's wall time.
	ElapsedMS int64  `json:"elapsedMs,omitempty"`
	Error     string `json:"error,omitempty"`
}

// epochEvent is the payload of EventEpoch frames: one live epoch sample
// tagged with the simulation run it belongs to.
type epochEvent struct {
	Run    string              `json:"run"`
	Sample metrics.EpochSample `json:"sample"`
}

// progressFor builds the job's engine hook: count into the service registry,
// stream to the job's SSE hub, then forward to the configured observer.
func (s *Service) progressFor(jb *job) runner.ProgressFunc {
	return runner.CountInto(s.reg, func(p runner.Progress) {
		ev := progressEvent{
			Event: p.Kind.String(), Job: p.Job, Total: p.Total,
			Started: p.Started, Done: p.Done, Failed: p.Failed,
			ElapsedMS: p.Elapsed.Milliseconds(),
		}
		if p.Err != nil {
			ev.Error = p.Err.Error()
		}
		jb.hub.publish(EventProgress, ev)
		if s.cfg.onProgress != nil {
			s.cfg.onProgress(jb.id, p)
		}
	})
}

// sampleFor builds the job's live epoch tap.
func (s *Service) sampleFor(jb *job) func(run string, sm metrics.EpochSample) {
	return func(run string, sm metrics.EpochSample) {
		jb.hub.publish(EventEpoch, epochEvent{Run: run, Sample: sm})
	}
}

// workersFor resolves the job's fan-out bound.
func (s *Service) workersFor(spec JobSpec) int {
	if spec.Workers > 0 {
		return spec.Workers
	}
	return s.cfg.Workers
}

// runJob executes the job's campaign and returns its report. Its finished
// units live in the job's unit journal, whichever mode runs them, so a
// drained job resumes them in either mode: a single-node daemon computes
// the units the journal lacks itself, and a coordinator shards them out to
// pulling workers and journals their uploads. Either way the units go
// through executeShardUnits and mergeUnits, the same library entry points
// and assemblers bankaware.Runner uses, so the stored report bytes are
// exactly what a direct Runner run with the same parameters would have
// written.
func (s *Service) runJob(ctx context.Context, jb *job) (*metrics.Report, error) {
	journal, err := runner.OpenJournal(s.store.JournalPath(jb.id))
	if err != nil {
		return nil, err
	}
	var units []json.RawMessage
	if s.coord != nil {
		units, err = s.runDistributed(ctx, jb, journal)
	} else {
		units, err = executeShardUnits(ctx, jb.spec, 0, campaignUnits(jb.spec), shardOptions{
			Workers: s.workersFor(jb.spec), Progress: s.progressFor(jb), Sample: s.sampleFor(jb),
			Journal: journal,
		})
	}
	if closeErr := journal.Close(); err == nil {
		err = closeErr
	}
	if err != nil {
		return nil, err
	}
	return mergeUnits(jb.spec, units)
}
