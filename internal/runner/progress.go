package runner

import (
	"fmt"
	"io"
	"time"

	"bankaware/internal/metrics"
)

// Kind distinguishes the progress notifications.
type Kind int

const (
	// JobStarted fires when a worker picks a job up.
	JobStarted Kind = iota
	// JobDone fires when a job returns without error.
	JobDone
	// JobFailed fires when a job returns an error or panics.
	JobFailed
)

// String renders the kind for logs.
func (k Kind) String() string {
	switch k {
	case JobStarted:
		return "started"
	case JobDone:
		return "done"
	case JobFailed:
		return "failed"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Progress is one engine notification plus the counters after it, the
// metrics surface the CLIs turn into live progress lines.
type Progress struct {
	// Kind says what happened to Job.
	Kind Kind
	// Job is the job index the event concerns.
	Job int
	// Total is the fan-out size.
	Total int
	// Started, Done and Failed count jobs in each state after this event
	// (Done excludes failures).
	Started, Done, Failed int
	// Elapsed is the job's wall time; zero for JobStarted.
	Elapsed time.Duration
	// Err is the job's error for JobFailed events.
	Err error
}

// Completed counts finished jobs, successful or not.
func (p Progress) Completed() int { return p.Done + p.Failed }

// ProgressFunc consumes engine notifications. The engine serialises calls.
type ProgressFunc func(Progress)

// tracker owns the counters and fans events out to the hook. Callers hold
// the engine mutex, so field updates and hook calls are already serialised.
type tracker struct {
	total                 int
	startedN, doneN, fail int
	progress              ProgressFunc
}

func (t *tracker) emit(k Kind, job int, elapsed time.Duration, err error) {
	if t.progress == nil {
		return
	}
	t.progress(Progress{
		Kind: k, Job: job, Total: t.total,
		Started: t.startedN, Done: t.doneN, Failed: t.fail,
		Elapsed: elapsed, Err: err,
	})
}

func (t *tracker) started(job int) {
	t.startedN++
	t.emit(JobStarted, job, 0, nil)
}

func (t *tracker) done(job int, elapsed time.Duration) {
	t.doneN++
	t.emit(JobDone, job, elapsed, nil)
}

func (t *tracker) failed(job int, elapsed time.Duration, err error) {
	t.fail++
	t.emit(JobFailed, job, elapsed, err)
}

// CountInto returns a ProgressFunc that counts engine activity into reg
// ("runner.jobs_started/done/failed") and then forwards to next (which may
// be nil). The registry can be read concurrently — e.g. served by
// metrics.StartDebugServer — while the campaign runs.
func CountInto(reg *metrics.Registry, next ProgressFunc) ProgressFunc {
	started := reg.Counter("runner.jobs_started")
	done := reg.Counter("runner.jobs_done")
	failed := reg.Counter("runner.jobs_failed")
	return func(p Progress) {
		switch p.Kind {
		case JobStarted:
			started.Inc()
		case JobDone:
			done.Inc()
		case JobFailed:
			failed.Inc()
		}
		if next != nil {
			next(p)
		}
	}
}

// Printer returns a ProgressFunc that renders a throttled single-line
// progress meter ("label: 412/1000 done, 1 failed, 3.2s") to w, rewriting
// the line in place and finishing it with a newline once the last job
// completes. Suitable for the CLIs' -progress flags.
func Printer(w io.Writer, label string) ProgressFunc {
	start := time.Now()
	var lastPrint time.Time
	return func(p Progress) {
		if p.Kind == JobStarted {
			return
		}
		now := time.Now()
		final := p.Completed() == p.Total
		if !final && now.Sub(lastPrint) < 100*time.Millisecond {
			return
		}
		lastPrint = now
		fmt.Fprintf(w, "\r%s: %d/%d done", label, p.Completed(), p.Total)
		if p.Failed > 0 {
			fmt.Fprintf(w, ", %d failed", p.Failed)
		}
		fmt.Fprintf(w, ", %.1fs", now.Sub(start).Seconds())
		if final {
			fmt.Fprintln(w)
		}
	}
}
