package bankaware

import (
	"context"
	"io"

	"bankaware/internal/experiments"
	"bankaware/internal/metrics"
	"bankaware/internal/montecarlo"
	"bankaware/internal/runner"
)

// Execution engine surface. Every evaluation campaign in the library runs
// through internal/runner, a bounded worker pool with context cancellation,
// per-job panic recovery and deterministic results (a fixed seed produces
// bit-identical output for any worker count). The facade exposes it two
// ways: the Runner type for callers that configure once and run several
// campaigns, and the RunMonteCarloContext / RunExperimentsContext functions
// for one-shot calls.
type (
	// Progress is one engine notification: which job started, finished or
	// failed, the counters after it, and the job's wall time.
	Progress = runner.Progress
	// ProgressKind distinguishes Progress notifications.
	ProgressKind = runner.Kind
	// ProgressFunc consumes Progress notifications; calls are serialised.
	ProgressFunc = runner.ProgressFunc
	// PanicError wraps a panic recovered inside a parallel job.
	PanicError = runner.PanicError
)

// Progress notification kinds.
const (
	// JobStarted fires when a worker picks a job up.
	JobStarted = runner.JobStarted
	// JobDone fires when a job completes without error.
	JobDone = runner.JobDone
	// JobFailed fires when a job returns an error or panics.
	JobFailed = runner.JobFailed
)

// ProgressPrinter returns a ProgressFunc rendering a throttled live
// progress line ("label: 412/1000 done, 3.2s") to w.
func ProgressPrinter(w io.Writer, label string) ProgressFunc {
	return runner.Printer(w, label)
}

// Detailed-simulation campaign surface (Figs. 8 and 9).
type (
	// Fidelity selects the execution engine of simulation campaigns.
	Fidelity = experiments.Fidelity
	// ExperimentScale selects the machine size for detailed simulations.
	ExperimentScale = experiments.Scale
	// SetResult is one Table III set evaluated under the three policies.
	SetResult = experiments.SetResult
	// ExperimentsResult aggregates the Figs. 8/9 campaign: per-set results
	// plus the cross-set geometric means.
	ExperimentsResult = experiments.Fig8Fig9Result
)

// TableIIISets are the paper's eight detailed-simulation workload mixes
// (Table III), core 0 through core 7 — the sets RunSet and RunExperiments
// evaluate.
var TableIIISets = experiments.TableIIISets

// Fidelity modes for WithFidelity.
const (
	// FidelityDetailed is the cycle-accurate event-driven engine.
	FidelityDetailed = experiments.FidelityDetailed
	// FidelityFast is the interval-model fast-path engine.
	FidelityFast = experiments.FidelityFast
)

// ParseFidelity normalises a fidelity string ("" and "detailed" select the
// detailed engine, "fast" the fast path).
func ParseFidelity(s string) (Fidelity, error) { return experiments.ParseFidelity(s) }

// Machine scales for RunExperiments.
const (
	// ScaleModel is the 1/16-scale machine used by tests and quick runs.
	ScaleModel = experiments.ScaleModel
	// ScaleFull is the paper's full Table I machine.
	ScaleFull = experiments.ScaleFull
)

// Runner executes the library's evaluation campaigns under one shared
// execution configuration: a context for cancellation and deadlines, a
// worker bound, a progress hook and an optional seed override. The zero
// configuration (NewRunner with no options) runs on all available cores
// with background context.
//
//	r := bankaware.NewRunner(
//		bankaware.WithContext(ctx),
//		bankaware.WithWorkers(8),
//		bankaware.WithProgress(bankaware.ProgressPrinter(os.Stderr, "trials")),
//	)
//	res, err := r.RunMonteCarlo(bankaware.DefaultMonteCarloConfig())
type Runner struct {
	ctx        context.Context
	workers    int
	progress   ProgressFunc
	seed       uint64
	hasSeed    bool
	metrics    *metrics.Registry
	reportW    io.Writer
	faults     *FaultPlan
	checkpoint string
	simWorkers int
	fidelity   experiments.Fidelity
}

// RunnerOption configures a Runner (functional options).
type RunnerOption func(*Runner)

// NewRunner builds a Runner from options.
func NewRunner(opts ...RunnerOption) *Runner {
	r := &Runner{ctx: context.Background()}
	for _, o := range opts {
		o(r)
	}
	return r
}

// WithContext installs the context every campaign run under this Runner
// uses for cancellation and deadline propagation.
func WithContext(ctx context.Context) RunnerOption {
	return func(r *Runner) {
		if ctx != nil {
			r.ctx = ctx
		}
	}
}

// WithWorkers bounds the worker pool. Zero or negative (and the default)
// select GOMAXPROCS. Results do not depend on the worker count.
func WithWorkers(n int) RunnerOption {
	return func(r *Runner) { r.workers = n }
}

// WithSimWorkers bounds the execution lanes inside each detailed
// simulation: 0 or 1 (the default) runs the classic sequential loop, n >= 2
// pipelines trace generation and profiler bookkeeping onto n-1 extra lanes
// feeding the simulation's commit thread. Like WithWorkers it is purely an
// execution knob — results and reports are byte-identical for every value.
// WithWorkers parallelises across a campaign's simulations, WithSimWorkers
// within each one; they compose, so keep their product near the machine's
// core count. Monte Carlo campaigns (analytic, no detailed simulation)
// ignore it.
func WithSimWorkers(n int) RunnerOption {
	return func(r *Runner) { r.simWorkers = n }
}

// WithFidelity selects the execution engine behind the Runner's
// detailed-simulation campaigns: FidelityDetailed (the default) runs the
// cycle-accurate simulator, FidelityFast the interval-model fast path.
// Unlike the execution knobs, fidelity changes what gets computed: fast
// results approximate detailed ones within the committed accuracy
// envelopes (see internal/fastsim/testdata) and the two fidelities are
// distinct experiment specs — the service layer hashes them to separate
// cache entries. Monte Carlo campaigns (already analytic) ignore it.
func WithFidelity(f Fidelity) RunnerOption {
	return func(r *Runner) { r.fidelity = f }
}

// WithProgress installs a hook receiving one Progress notification per job
// start and completion; see ProgressPrinter for a ready-made CLI consumer.
func WithProgress(fn ProgressFunc) RunnerOption {
	return func(r *Runner) { r.progress = fn }
}

// WithSeed overrides the campaign seed: the Monte Carlo workload draws and
// the detailed simulations' stream generation both derive from it.
func WithSeed(seed uint64) RunnerOption {
	return func(r *Runner) { r.seed, r.hasSeed = seed, true }
}

// WithMetrics attaches a metrics registry to the Runner: engine activity
// is counted into it ("runner.jobs_started/done/failed"), and every
// simulation campaign runs with the observation layer enabled so its
// results carry per-run epoch time series and partition events. The
// registry is safe to read concurrently (e.g. from a debug HTTP server)
// while campaigns run.
func WithMetrics(reg *metrics.Registry) RunnerOption {
	return func(r *Runner) { r.metrics = reg }
}

// WithReportWriter makes the Runner write each campaign's versioned JSON
// run report to w after the campaign completes. Reports are byte-stable
// for a fixed seed regardless of the worker count. Writing to a file is
// the caller's concern; the CLIs' -report flag is a thin wrapper.
func WithReportWriter(w io.Writer) RunnerOption {
	return func(r *Runner) { r.reportW = w }
}

// WithFaultPlan injects a deterministic fault plan into every campaign run
// under this Runner: detailed simulations consume it at repartition
// boundaries (banks fail or slow down, profiling degrades, DRAM spikes),
// and the Monte Carlo degrades every trial with the plan's epoch-0 state.
// A fixed (seed, plan) pair still produces byte-stable reports. Nil (and
// the default) runs healthy.
func WithFaultPlan(p *FaultPlan) RunnerOption {
	return func(r *Runner) { r.faults = p }
}

// WithCheckpoint journals every completed Monte Carlo trial to path so a
// killed campaign resumes where it stopped: rerunning with the same path
// and configuration restores the recorded trials instead of recomputing
// them, and the resumed campaign's report is byte-identical to an
// uninterrupted run. The file is created on first use and appended on
// resume; delete it to start fresh. Detailed-simulation campaigns ignore
// the checkpoint.
func WithCheckpoint(path string) RunnerOption {
	return func(r *Runner) { r.checkpoint = path }
}

// observe reports whether campaigns should attach the observation layer.
func (r *Runner) observe() bool { return r.metrics != nil || r.reportW != nil }

// progressFunc returns the progress hook, chained with engine counters
// when a metrics registry is attached.
func (r *Runner) progressFunc() ProgressFunc {
	if r.metrics == nil {
		return r.progress
	}
	return runner.CountInto(r.metrics, r.progress)
}

// experimentOptions builds the campaign options for the detailed
// simulations from the Runner's configuration.
func (r *Runner) experimentOptions() experiments.Options {
	opt := experiments.Options{
		Workers: r.workers, Progress: r.progressFunc(), Observe: r.observe(),
		Faults: r.faults, SimWorkers: r.simWorkers, Fidelity: r.fidelity,
	}
	if r.hasSeed {
		opt.Seed = r.seed
	}
	return opt
}

// emitReport writes rep to the configured report writer, if any.
func (r *Runner) emitReport(rep *metrics.Report) error {
	if r.reportW == nil {
		return nil
	}
	return rep.WriteJSON(r.reportW)
}

// RunMonteCarlo executes the Fig. 7 Monte Carlo campaign on the engine.
func (r *Runner) RunMonteCarlo(cfg MonteCarloConfig) (*MonteCarloResults, error) {
	if r.hasSeed {
		cfg.Seed = r.seed
	}
	opt := montecarlo.Options{Workers: r.workers, Progress: r.progressFunc(), Faults: r.faults}
	if r.checkpoint != "" {
		j, err := runner.OpenJournal(r.checkpoint)
		if err != nil {
			return nil, err
		}
		defer j.Close()
		opt.Journal = j
	}
	res, err := montecarlo.RunContext(r.ctx, cfg, opt)
	if err != nil {
		return nil, err
	}
	if err := r.emitReport(res.Report()); err != nil {
		return nil, err
	}
	return res, nil
}

// RunExperiments executes the Figs. 8/9 detailed-simulation campaign (8
// Table III sets x 3 policies, fanned out as 24 independent jobs). An
// instructions budget of zero selects the scale's default.
func (r *Runner) RunExperiments(scale ExperimentScale, instructions uint64) (*ExperimentsResult, error) {
	opt := r.experimentOptions()
	res, err := experiments.RunFig8Fig9Context(r.ctx, scale, instructions, opt)
	if err != nil {
		return nil, err
	}
	if err := r.emitReport(res.Report()); err != nil {
		return nil, err
	}
	return res, nil
}

// RunSet simulates one Table III workload set under the three policies
// with the Runner's execution configuration. cfg is the simulator
// configuration (typically an ExperimentScale's Config, possibly with a
// shortened epoch), set is a 1-based label for the report, and an
// instructions budget of zero selects the model scale's default.
func (r *Runner) RunSet(cfg SimConfig, set int, workloads []string, instructions uint64) (*SetResult, error) {
	opt := r.experimentOptions()
	if instructions == 0 {
		instructions = ScaleModel.DefaultInstructions()
	}
	res, err := experiments.RunSetContext(r.ctx, cfg, set, workloads, instructions, opt)
	if err != nil {
		return nil, err
	}
	if err := r.emitReport(res.Report()); err != nil {
		return nil, err
	}
	return res, nil
}

// RunMonteCarloContext is the one-shot form of Runner.RunMonteCarlo.
func RunMonteCarloContext(ctx context.Context, cfg MonteCarloConfig, opts ...RunnerOption) (*MonteCarloResults, error) {
	return NewRunner(append([]RunnerOption{WithContext(ctx)}, opts...)...).RunMonteCarlo(cfg)
}

// RunExperimentsContext is the one-shot form of Runner.RunExperiments.
func RunExperimentsContext(ctx context.Context, scale ExperimentScale, instructions uint64, opts ...RunnerOption) (*ExperimentsResult, error) {
	return NewRunner(append([]RunnerOption{WithContext(ctx)}, opts...)...).RunExperiments(scale, instructions)
}
