// Package service turns the library into a long-running system: a job-queue
// daemon that accepts partitioning-experiment jobs (single workload sets,
// the full Figs. 8/9 campaign, Monte Carlo campaigns) over an HTTP/JSON
// API, schedules them on a bounded executor pool with per-job priorities
// and deadlines, streams live progress and epoch samples over SSE, and
// persists every finished run report in a durable on-disk store so results
// survive restarts.
//
// The contract is the same determinism the rest of the repository holds: a
// job spec with a fixed seed produces a report byte-identical to running
// the same campaign through bankaware.Runner directly, on any daemon, for
// any worker count, drained and resumed or not.
//
// Lifecycle: New opens the store, Start restores interrupted jobs and
// launches the executors, Drain stops intake and finishes or checkpoints
// in-flight jobs (SIGTERM in cmd/bankawared), Close shuts everything down.
package service

import (
	"context"
	"errors"
	"sync"
	"time"

	"bankaware/internal/metrics"
	"bankaware/internal/runner"
)

// ErrDraining is returned by Submit once Drain has begun — the HTTP layer's
// 503.
var ErrDraining = errors.New("service: draining, not accepting jobs")

// Config parametrises a Service.
type Config struct {
	// Dir is the durable store root: intake.wal, reports/, the ledger,
	// and each unfinished job's unit journal (journals/), in either mode.
	Dir string
	// Jobs bounds how many jobs execute concurrently. Default 1: jobs are
	// whole campaigns that parallelise internally, so one at a time already
	// saturates the machine; raise it for mixes of small jobs.
	Jobs int
	// QueueCap bounds the waiting queue; submissions beyond it are rejected
	// (HTTP 429). Default 256.
	QueueCap int
	// Workers is the default per-job fan-out bound for specs that do not
	// set their own; zero selects GOMAXPROCS.
	Workers int
	// Coordinator switches the daemon into coordinator mode: jobs are not
	// executed locally but sharded into leased work units that worker
	// daemons pull over /v1/work, with the uploaded units merged into a
	// report byte-identical to a single-node run of the same spec.
	Coordinator bool
	// LeaseTTL is how long a worker holds a shard lease before it must
	// renew; an expired lease re-queues the shard for another worker.
	// Default 15s.
	LeaseTTL time.Duration
	// ShardUnits caps how many campaign units one shard carries; zero
	// selects units/16 (at least 1).
	ShardUnits int
	// ScrubEvery, when positive, runs a background integrity scrub over the
	// store at that interval: the job log is re-verified, every stored
	// report is re-hashed against its record and the run ledger,
	// mismatches are quarantined and the affected jobs re-queued (see
	// Service.Scrub). Zero disables the loop; POST /v1/scrub and
	// `bankawared scrub` still run passes on demand.
	ScrubEvery time.Duration

	// onProgress, when non-nil, observes every job's engine notifications;
	// the package's tests set it. Calls are serialised within a job but
	// concurrent across jobs.
	onProgress func(jobID string, p runner.Progress)
}

func (c Config) jobs() int {
	if c.Jobs < 1 {
		return 1
	}
	return c.Jobs
}

func (c Config) queueCap() int {
	if c.QueueCap < 1 {
		return 256
	}
	return c.QueueCap
}

// retainedFinished bounds how many finished jobs keep their runtime, and
// with it the event hub that replays their stream. Older finished jobs
// are served from the store like jobs finished under a previous daemon:
// their event stream is the one terminal-state frame.
const retainedFinished = 64

// job is the in-memory runtime of one queued or running job.
type job struct {
	id   string
	seq  int
	spec JobSpec
	hub  *hub

	mu     sync.Mutex
	phase  string // StateQueued | StateRunning | "finished"
	cancel context.CancelFunc
	reason string // "" | "cancel" | "drain": why cancel was called
}

// markCancel records why the job is being stopped and fires its context
// cancellation (when running). It reports whether the mark took (false once
// the job already finished or carries a reason).
func (jb *job) markCancel(reason string) bool {
	jb.mu.Lock()
	defer jb.mu.Unlock()
	if jb.phase == "finished" || jb.reason != "" {
		return false
	}
	jb.reason = reason
	if jb.cancel != nil {
		jb.cancel()
	}
	return true
}

// Service is the daemon: store, queue, executors and the HTTP surface
// (Handler). Safe for concurrent use.
type Service struct {
	cfg   Config
	store *Store
	queue *jobQueue
	reg   *metrics.Registry
	coord *coordinator // nil unless cfg.Coordinator

	baseCtx    context.Context
	baseCancel context.CancelFunc

	mu       sync.Mutex
	jobs     map[string]*job // runtime state; older finished jobs absent
	running  map[string]*job
	draining bool
	started  bool
	// finished is a ring of the most recently finished runtimes;
	// finishedNext is the slot the next one takes.
	finished     [retainedFinished]*job
	finishedNext int

	// healMu serialises integrity healing: scrub passes and read-path
	// corruption re-queues check job state and then act on it, and two
	// healers interleaving could enqueue the same job twice.
	healMu    sync.Mutex
	lastScrub *ScrubStats // guarded by mu

	// dedupMu guards pending: submissions whose group commit is in flight,
	// keyed like the store's dedup index. A duplicate arriving during the
	// window waits for the original's commit instead of starting its own.
	dedupMu sync.Mutex
	pending map[string]*pendingSubmit

	wg       sync.WaitGroup // executor goroutines
	inflight sync.WaitGroup // jobs claimed from the queue (see queue.pop)

	submitted *metrics.Counter
	rejects   *metrics.Counter
	completed *metrics.Counter
	failed    *metrics.Counter
	canceled  *metrics.Counter
	cacheHit  *metrics.Counter
	cacheMiss *metrics.Counter

	scrubRuns    *metrics.Counter
	scrubCorrupt *metrics.Counter
	healed       *metrics.Counter
}

// pendingSubmit is one in-flight original submission duplicates can latch
// onto. id and err are written before done closes.
type pendingSubmit struct {
	done chan struct{}
	id   string
	err  error
}

// New opens the store at cfg.Dir and assembles a stopped Service; call
// Start to restore interrupted jobs and begin executing.
func New(cfg Config) (*Service, error) {
	store, err := OpenStore(cfg.Dir)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Service{
		cfg:        cfg,
		store:      store,
		reg:        metrics.NewRegistry(),
		baseCtx:    ctx,
		baseCancel: cancel,
		jobs:       make(map[string]*job),
		running:    make(map[string]*job),
		pending:    make(map[string]*pendingSubmit),
	}
	s.queue = newJobQueue(cfg.queueCap(), &s.inflight)
	s.submitted = s.reg.Counter("service.jobs_submitted")
	s.rejects = s.reg.Counter("service.queue_rejects")
	s.completed = s.reg.Counter("service.jobs_done")
	s.failed = s.reg.Counter("service.jobs_failed")
	s.canceled = s.reg.Counter("service.jobs_canceled")
	s.cacheHit = s.reg.Counter("service.cache_hits")
	s.cacheMiss = s.reg.Counter("service.cache_misses")
	s.scrubRuns = s.reg.Counter("service.scrub_runs")
	s.scrubCorrupt = s.reg.Counter("service.scrub_corrupt")
	s.healed = s.reg.Counter("service.jobs_healed")
	if cfg.Coordinator {
		s.coord = newCoordinator(s)
	}
	s.reg.RegisterFunc("service.queue_depth", func() float64 { return float64(s.queue.depth()) })
	s.reg.RegisterFunc("service.job_log_commits", func() float64 { return float64(store.commits.Value()) })
	s.reg.RegisterFunc("service.jobs_running", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(len(s.running))
	})
	return s, nil
}

// Registry exposes the service metrics (also served at /debug/metrics).
func (s *Service) Registry() *metrics.Registry { return s.reg }

// Store exposes the durable store (read paths; the client CLI and tests).
func (s *Service) Store() *Store { return s.store }

// Start restores every non-terminal stored job into the queue (a job that
// was running when the previous daemon stopped re-enqueues and resumes the
// finished units of its unit journal) and launches the executor pool.
func (s *Service) Start() error {
	s.mu.Lock()
	if s.started {
		s.mu.Unlock()
		return errors.New("service: already started")
	}
	s.started = true
	s.mu.Unlock()

	for _, rec := range s.store.Jobs() {
		if rec.Terminal() {
			continue
		}
		if s.runtime(rec.ID) != nil {
			// Submitted to this instance before Start — already queued.
			continue
		}
		if rec.State != StateQueued {
			rec.State = StateQueued
			if err := s.store.Put(rec); err != nil {
				return err
			}
		}
		if err := s.queue.reserve(); err != nil {
			// More interrupted jobs than queue capacity: surface rather
			// than silently drop (the operator sized the queue too small
			// for the backlog).
			return err
		}
		s.queue.pushReserved(s.newRuntime(rec))
	}
	for i := 0; i < s.cfg.jobs(); i++ {
		s.wg.Add(1)
		go s.executor()
	}
	if s.cfg.ScrubEvery > 0 {
		s.wg.Add(1)
		go s.scrubLoop(s.cfg.ScrubEvery)
	}
	return nil
}

// newRuntime registers the in-memory state for a queued record.
func (s *Service) newRuntime(rec JobRecord) *job {
	jb := &job{id: rec.ID, seq: rec.Seq, spec: rec.Spec, phase: StateQueued, hub: newHub()}
	s.mu.Lock()
	s.jobs[rec.ID] = jb
	s.mu.Unlock()
	return jb
}

// retire closes a job's stream after its terminal frame and keeps its
// runtime among the most recent finished ones, dropping the oldest beyond
// retainedFinished. A runtime that a heal re-queued since is kept.
func (s *Service) retire(jb *job) {
	jb.hub.close()
	s.mu.Lock()
	defer s.mu.Unlock()
	old := s.finished[s.finishedNext]
	s.finished[s.finishedNext] = jb
	s.finishedNext = (s.finishedNext + 1) % retainedFinished
	if old != nil && s.jobs[old.id] == old {
		delete(s.jobs, old.id)
	}
}

// runtime returns the in-memory job for id, nil for jobs that reached a
// terminal state before this daemon started or before the most recent
// retainedFinished finished jobs.
func (s *Service) runtime(id string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// Draining reports whether Drain has begun.
func (s *Service) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Submit accepts a job with spec-hash dedup and no idempotency key; see
// SubmitDedup for the full contract.
func (s *Service) Submit(spec JobSpec) (JobRecord, error) {
	rec, _, err := s.SubmitDedup(spec, "")
	return rec, err
}

// SubmitDedup is the intake path behind POST /v1/jobs. It validates
// nothing (the spec is already validated by DecodeJobSpec or the caller).
//
// Dedup comes first: the submission's dedup key — the client's
// Idempotency-Key when present, the canonical spec hash otherwise — is
// resolved against in-flight submissions and the store's index. A match
// returns the existing record with hit=true and runs nothing: a queued or
// running match coalesces the duplicate onto the one execution, a done
// match is a content-addressed cache hit whose stored report serves the
// response. Misses claim the key, then commit a queued record through
// Store.Put (durable before the ack, sharing its fsync with concurrent
// submissions) and enqueue it.
//
// It fails with ErrDraining during shutdown and ErrQueueFull under
// backpressure; both are decided before the durable write, so a rejected
// submission leaves no trace in the store.
func (s *Service) SubmitDedup(spec JobSpec, idemKey string) (JobRecord, bool, error) {
	hash := SpecHash(spec)
	key := dedupKey(hash, idemKey)

	s.dedupMu.Lock()
	if p, ok := s.pending[key]; ok {
		s.dedupMu.Unlock()
		<-p.done
		if p.err != nil {
			// The original's commit failed; its outcome is this duplicate's
			// outcome (it acked nothing either).
			return JobRecord{}, false, p.err
		}
		rec, _ := s.store.Get(p.id)
		s.cacheHit.Inc()
		return rec, true, nil
	}
	if rec, ok := s.store.DedupLookup(key); ok {
		s.dedupMu.Unlock()
		s.cacheHit.Inc()
		return rec, true, nil
	}
	p := &pendingSubmit{done: make(chan struct{})}
	s.pending[key] = p
	s.dedupMu.Unlock()

	rec, err := s.submitNew(spec, hash, idemKey)
	p.id, p.err = rec.ID, err
	s.dedupMu.Lock()
	delete(s.pending, key)
	s.dedupMu.Unlock()
	close(p.done)
	if err != nil {
		return JobRecord{}, false, err
	}
	s.cacheMiss.Inc()
	return rec, false, nil
}

// submitNew runs the miss path: reserve queue capacity, group-commit the
// record, enqueue the runtime.
func (s *Service) submitNew(spec JobSpec, hash, idemKey string) (JobRecord, error) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		return JobRecord{}, ErrDraining
	}
	// Reserve the queue slot before paying for durability: backpressure is
	// a fast 429, and the slot guarantees the committed job can enqueue.
	if err := s.queue.reserve(); err != nil {
		if errors.Is(err, ErrQueueFull) {
			s.rejects.Inc()
			return JobRecord{}, ErrQueueFull
		}
		return JobRecord{}, ErrDraining
	}
	rec := s.store.AllocRecord(spec, hash, idemKey, time.Now())
	if err := s.store.Put(rec); err != nil {
		s.queue.release()
		if errors.Is(err, errClosed) {
			return JobRecord{}, ErrDraining
		}
		return JobRecord{}, err
	}
	// Durable from here: even if drain closes the queue in this window the
	// submission stays acked — the record re-enqueues on the next Start.
	jb := s.newRuntime(rec)
	jb.hub.publish(EventState, stateEvent{State: StateQueued})
	s.queue.pushReserved(jb)
	s.submitted.Inc()
	return rec, nil
}

// Cancel stops a job: a queued job is withdrawn immediately, a running one
// has its context cancelled and unwinds to StateCanceled. Cancelling a
// terminal job reports ok=false.
func (s *Service) Cancel(id string) (JobRecord, bool) {
	rec, known := s.store.Get(id)
	if !known {
		return JobRecord{}, false
	}
	jb := s.runtime(id)
	if jb == nil || rec.Terminal() {
		return rec, false
	}
	if s.queue.remove(jb) {
		// Withdrawn before any executor claimed it (a drained job that was
		// re-queued included).
		jb.mu.Lock()
		jb.phase = "finished"
		jb.mu.Unlock()
		return s.finishCanceled(jb), true
	}
	if !jb.markCancel("cancel") {
		rec, _ = s.store.Get(id)
		return rec, false
	}
	rec, _ = s.store.Get(id)
	return rec, true
}

// Drain begins graceful shutdown: intake stops (Submit fails with
// ErrDraining, HTTP 503), no queued job starts, and in-flight jobs keep
// running until they finish — or until ctx expires, at which point they are
// cancelled, keep what they have (every job's unit journal holds each
// finished unit) and return to StateQueued so the next daemon resumes
// them. Drain returns once no job is executing. It is idempotent.
func (s *Service) Drain(ctx context.Context) {
	s.mu.Lock()
	first := !s.draining
	s.draining = true
	s.mu.Unlock()
	if first {
		s.queue.close()
	}
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		s.mu.Lock()
		for _, jb := range s.running {
			jb.markCancel("drain")
		}
		s.mu.Unlock()
		<-done
	}
}

// Close drains immediately (in-flight jobs are interrupted and requeued for
// the next start), stops the executor pool, and releases the store: a
// submission that races Close fails with ErrDraining.
func (s *Service) Close() error {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s.Drain(ctx)
	s.baseCancel()
	s.wg.Wait()
	return s.store.Close()
}

// executor pulls jobs off the queue until it closes.
func (s *Service) executor() {
	defer s.wg.Done()
	for {
		jb := s.queue.pop()
		if jb == nil {
			return
		}
		s.execute(jb)
		s.inflight.Done()
	}
}

// execute runs one claimed job through its full lifecycle.
func (s *Service) execute(jb *job) {
	jb.mu.Lock()
	if jb.reason == "cancel" {
		// Cancelled in the claim window between pop and here.
		jb.phase = "finished"
		jb.mu.Unlock()
		s.finishCanceled(jb)
		return
	}
	ctx, cancel := context.WithCancel(s.baseCtx)
	if jb.spec.TimeoutMS > 0 {
		ctx, cancel = context.WithTimeout(s.baseCtx, time.Duration(jb.spec.TimeoutMS)*time.Millisecond)
	}
	jb.phase = StateRunning
	jb.cancel = cancel
	jb.mu.Unlock()
	defer cancel()

	rec, _ := s.store.Get(jb.id)
	rec.State = StateRunning
	rec.Attempts++
	rec.StartedAt = time.Now().UTC()
	s.store.Put(rec)
	s.mu.Lock()
	s.running[jb.id] = jb
	s.mu.Unlock()
	jb.hub.publish(EventState, stateEvent{State: StateRunning, Attempt: rec.Attempts})

	rep, err := s.runJob(ctx, jb)

	s.mu.Lock()
	delete(s.running, jb.id)
	s.mu.Unlock()
	jb.mu.Lock()
	jb.phase = "finished"
	reason := jb.reason
	jb.mu.Unlock()

	rec, _ = s.store.Get(jb.id)
	switch {
	case err == nil:
		hash, serr := s.store.SaveReport(jb.id, rep)
		if serr != nil {
			rec.State = StateFailed
			rec.Error = serr.Error()
			s.failed.Inc()
			break
		}
		rec.State = StateDone
		rec.Error = ""
		rec.ReportHash = hash
		s.completed.Inc()
	case reason == "cancel":
		rec.State = StateCanceled
		s.canceled.Inc()
	case reason == "drain":
		// Interrupted by shutdown: back to the queue for the next daemon.
		// The job keeps its unit journal, which holds the finished units.
		rec.State = StateQueued
		s.store.Put(rec)
		jb.hub.publish(EventState, stateEvent{State: StateQueued, Detail: "interrupted by drain"})
		jb.hub.close()
		return
	default:
		rec.State = StateFailed
		rec.Error = err.Error()
		s.failed.Inc()
	}
	s.finish(jb, rec)
}

// finishCanceled finalises a job cancelled before execution began.
func (s *Service) finishCanceled(jb *job) JobRecord {
	rec, _ := s.store.Get(jb.id)
	rec.State = StateCanceled
	s.canceled.Inc()
	return s.finish(jb, rec)
}

// finish records a job's terminal state. The job's unit journal and shard
// dir go first, so a job the store calls terminal never leaves either
// behind.
func (s *Service) finish(jb *job, rec JobRecord) JobRecord {
	s.store.removeUnits(jb.id)
	rec.FinishedAt = time.Now().UTC()
	s.store.Put(rec)
	jb.hub.publish(EventState, stateEvent{State: rec.State, Detail: rec.Error})
	s.retire(jb)
	return rec
}

// stateEvent is the payload of EventState frames.
type stateEvent struct {
	State string `json:"state"`
	// Attempt is the 1-based execution attempt for StateRunning events.
	Attempt int `json:"attempt,omitempty"`
	// Detail carries the failure message or the drain note.
	Detail string `json:"detail,omitempty"`
}
