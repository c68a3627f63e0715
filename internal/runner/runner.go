// Package runner is the parallel execution engine every experiment harness
// in this repository fans out through. The paper's evaluations are
// embarrassingly parallel — the Fig. 7 Monte Carlo is 1000 independent
// workload mixes, the Figs. 8/9 campaign is 8 sets x 3 policies of
// independent full-system simulations — so the engine's job is narrow and
// strict:
//
//   - bound concurrency by GOMAXPROCS or an explicit Workers option;
//   - propagate context.Context cancellation and deadlines into every job;
//   - recover per-job panics into errors instead of killing the process;
//   - aggregate errors first-error-wins (the first failure cancels the
//     remaining jobs, exactly like errgroup);
//   - report progress (jobs started / done / failed, wall time per job)
//     through a hook the CLIs render as live progress lines.
//
// Determinism is the engine's contract with the experiments: jobs receive
// their index and must derive any randomness from it and the run's seed
// alone (the Monte Carlo campaign draws every trial's mix serially before
// the fan-out; sim.Generators derives each core's stream from the seed, the
// core's spec and its index), and Map stores results by index, so a run
// with Workers=8 is bit-identical to Workers=1.
package runner

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"
)

// Config bounds and instruments one fan-out.
type Config struct {
	// Workers caps concurrent jobs. Zero or negative selects
	// runtime.GOMAXPROCS(0), i.e. "as fast as the hardware allows".
	Workers int
	// Progress, when non-nil, receives one event per job start and
	// completion. Calls are serialised by the engine, so the hook needs no
	// locking of its own.
	Progress ProgressFunc
	// Journal, when non-nil, checkpoints every completed job's result and
	// restores recorded jobs instead of recomputing them, so a killed
	// campaign resumes where it stopped. See Journal.
	Journal *Journal
}

// workers resolves the effective pool size for n jobs.
func (c Config) workers(n int) int {
	w := c.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// PanicError wraps a panic recovered inside a job so one bad trial cannot
// tear down a whole campaign.
type PanicError struct {
	// Job is the index of the job that panicked.
	Job int
	// Value is the recovered panic value.
	Value any
	// Stack is the goroutine stack at the point of the panic.
	Stack []byte
}

// Error implements error.
func (e *PanicError) Error() string {
	return fmt.Sprintf("runner: job %d panicked: %v\n%s", e.Job, e.Value, e.Stack)
}

// Map executes n independent jobs on a bounded worker pool and returns the
// results indexed by job, so the output is identical for any worker count.
// fn receives a context that is cancelled as soon as the parent context is
// done or another job fails; long-running jobs should check it between
// chunks of work. Each job runs once: a job is a function of its index and
// inputs, so an attempt that failed would fail again. The first job error
// (or recovered panic) cancels the remaining jobs and becomes Map's error;
// if the parent context ends before all jobs complete, Map returns the
// context's error. On error the partial results are returned so far as
// they were computed.
func Map[T any](ctx context.Context, cfg Config, n int, fn func(ctx context.Context, job int) (T, error)) ([]T, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	results := make([]T, n)
	if n == 0 {
		return results, ctx.Err()
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		mu        sync.Mutex // guards next, firstErr, tracker, progress calls
		next      int
		completed int
		firstErr  error
		track     = tracker{total: n, progress: cfg.Progress}
	)
	fail := func(err error) {
		if firstErr == nil {
			firstErr = err
			cancel()
		}
	}
	runJob := func(job int) {
		if cfg.Journal != nil {
			var res T
			if ok, err := cfg.Journal.Restore(job, &res); ok && err == nil {
				mu.Lock()
				track.started(job)
				completed++
				results[job] = res
				track.done(job, 0)
				mu.Unlock()
				return
			}
		}
		mu.Lock()
		track.started(job)
		mu.Unlock()
		begin := time.Now()
		res, err := protect(ctx, job, fn)
		elapsed := time.Since(begin)
		if err == nil && cfg.Journal != nil {
			err = cfg.Journal.Record(job, res)
		}
		mu.Lock()
		defer mu.Unlock()
		completed++
		if err != nil {
			track.failed(job, elapsed, err)
			fail(err)
			return
		}
		results[job] = res
		track.done(job, elapsed)
	}

	var wg sync.WaitGroup
	for w := 0; w < cfg.workers(n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if next >= n || firstErr != nil || ctx.Err() != nil {
					mu.Unlock()
					return
				}
				job := next
				next++
				mu.Unlock()
				runJob(job)
			}
		}()
	}
	wg.Wait()

	if firstErr != nil {
		return results, firstErr
	}
	if completed < n {
		// The parent context ended before the pool drained the queue.
		return results, ctx.Err()
	}
	return results, nil
}

// protect invokes fn with panic recovery.
func protect[T any](ctx context.Context, job int, fn func(ctx context.Context, job int) (T, error)) (res T, err error) {
	defer func() {
		if r := recover(); r != nil {
			buf := make([]byte, 4096)
			buf = buf[:runtime.Stack(buf, false)]
			err = &PanicError{Job: job, Value: r, Stack: buf}
		}
	}()
	return fn(ctx, job)
}
