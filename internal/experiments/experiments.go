// Package experiments encodes the paper's evaluation section as runnable
// experiments: the Table III workload sets, the simulation protocol
// (fast-forward/warm-up/measure), and one function per table, figure and
// ablation. The bankaware command prints their results at the parameters
// EXPERIMENTS.md reports; TestPaperClaims runs each at the same parameters,
// asserts the paper's claims and checks the document's tables.
package experiments

import (
	"context"
	"fmt"
	"strings"

	"bankaware/internal/core"
	"bankaware/internal/faults"
	"bankaware/internal/metrics"
	"bankaware/internal/msa"
	"bankaware/internal/runner"
	"bankaware/internal/sim"
	"bankaware/internal/stats"
	"bankaware/internal/trace"
)

// Options tunes how a campaign executes without affecting what it computes:
// every simulation is deterministic in (config, policy, specs), so results
// are identical for any worker count.
type Options struct {
	// Workers bounds the fan-out; zero selects GOMAXPROCS.
	Workers int
	// Progress receives engine events for live progress reporting.
	Progress runner.ProgressFunc
	// Seed, when non-zero, overrides the simulator seed of every run.
	Seed uint64
	// Observe attaches the metrics observation layer to every simulation,
	// populating the campaign results' Reports (epoch time series and
	// partition events per run). Observation never changes simulated
	// outcomes, only what gets recorded.
	Observe bool
	// Sample, when non-nil, receives every epoch sample live as the
	// simulations append it, tagged with the run it belongs to
	// ("set<N>/<policy>" in the Figs. 8/9 campaign, the policy name in a
	// single-set run). Jobs run concurrently, so the hook must be safe for
	// concurrent use and must not block. Sampling attaches the recorder but
	// — unlike Observe — does not retain run reports in the results, so the
	// campaign's outcome and report bytes are identical with or without it.
	Sample func(run string, s metrics.EpochSample)
	// Faults injects the fault plan into every simulation (see
	// sim.Config.Faults): banks fail or slow down at the scheduled epochs
	// and the policies re-partition around them. Nil runs healthy.
	Faults *faults.Plan
	// SimWorkers bounds the execution lanes *inside* each simulation (see
	// sim.System.SetSimWorkers); 0 or 1 runs the classic sequential loop.
	// Like Workers it is an execution knob: results are byte-identical for
	// every value. Workers parallelises across simulations, SimWorkers
	// within one — the two compose, so keep Workers*SimWorkers near the
	// machine's core count.
	SimWorkers int
	// Fidelity selects the execution engine: FidelityDetailed (and the
	// zero value) runs the cycle-accurate simulator, FidelityFast the
	// interval-model fast path. Unlike the knobs above this *does* affect
	// what gets computed — fast results approximate detailed ones within
	// the committed accuracy envelopes and the two fidelities are distinct
	// experiment specs (separate cache entries, distinct spec hashes).
	Fidelity Fidelity
}

// runnerConfig builds the engine configuration for one fan-out.
func (o Options) runnerConfig() runner.Config {
	return runner.Config{Workers: o.Workers, Progress: o.Progress}
}

// sampler adapts the campaign-level Sample hook to one run's live tap.
func (o Options) sampler(run string) func(metrics.EpochSample) {
	if o.Sample == nil {
		return nil
	}
	return func(s metrics.EpochSample) { o.Sample(run, s) }
}

func (o Options) apply(cfg sim.Config) sim.Config {
	if o.Seed != 0 {
		cfg.Seed = o.Seed
	}
	if o.Faults != nil {
		cfg.Faults = o.Faults
	}
	return cfg
}

// TableIIISets are the paper's eight detailed-simulation workload mixes
// (Table III), core 0 through core 7.
var TableIIISets = [8][]string{
	{"apsi", "galgel", "gcc", "mgrid", "applu", "mesa", "facerec", "gzip"},
	{"crafty", "gap", "mcf", "art", "equake", "equake", "bzip2", "equake"},
	{"applu", "galgel", "art", "art", "sixtrack", "gcc", "mgrid", "lucas"},
	{"mgrid", "mcf", "art", "equake", "gcc", "equake", "sixtrack", "crafty"},
	{"facerec", "fma3d", "sixtrack", "apsi", "fma3d", "ammp", "lucas", "swim"},
	{"bzip2", "gcc", "twolf", "mesa", "wupwise", "applu", "fma3d", "ammp"},
	{"swim", "parser", "mgrid", "twolf", "fma3d", "parser", "swim", "mcf"},
	{"ammp", "eon", "swim", "gap", "gcc", "art", "twolf", "art"},
}

// Scale selects the machine size for detailed simulations.
type Scale int

const (
	// ScaleModel is the 1/16-scale machine (128-set banks): every capacity
	// ratio of the baseline is preserved while working sets build up ~16x
	// faster, standing in for the paper's 1B-instruction fast-forward.
	ScaleModel Scale = iota
	// ScaleFull is the paper's full Table I machine (2048-set banks,
	// 16 MB L2). Experiments at this scale need hundreds of millions of
	// instructions to warm and are meant for the CLI, not tests.
	ScaleFull
)

// ParseScale maps a scale name to its machine: empty and "model" select
// ScaleModel, "full" ScaleFull, anything else is an error.
func ParseScale(s string) (Scale, error) {
	switch s {
	case "", "model":
		return ScaleModel, nil
	case "full":
		return ScaleFull, nil
	}
	return 0, fmt.Errorf("experiments: unknown scale %q (want model|full)", s)
}

// Config returns the simulator configuration for a scale.
func (s Scale) Config() sim.Config {
	cfg := sim.DefaultConfig()
	switch s {
	case ScaleFull:
		return cfg
	default:
		cfg.BankSets = 128
		cfg.L1.Sets = 32
		cfg.Profiler = msa.Config{Sets: 128, MaxWays: 72, SampleLog2: 0, PartialTagBits: 12}
		cfg.EpochCycles = 1_500_000
		return cfg
	}
}

// DefaultInstructions returns a sensible per-core instruction budget for
// the scale (the paper runs 200M after 1.1B of fast-forward + warm-up).
func (s Scale) DefaultInstructions() uint64 {
	if s == ScaleFull {
		return 200_000_000
	}
	return 3_000_000
}

// SetResult is one Table III set evaluated under the three policies — one
// bar group of Figs. 8 and 9.
type SetResult struct {
	Set       int
	Workloads []string
	None      sim.Result
	Equal     sim.Result
	Bank      sim.Result

	// Per-benchmark geometric-mean ratios vs No-partitions (Figs. 8, 9).
	RelMissEqual, RelMissBank float64
	RelCPIEqual, RelCPIBank   float64
	// System-total miss ratios vs No-partitions.
	TotalMissEqual, TotalMissBank float64

	// Reports holds one run report per policy (None, Equal, Bank order)
	// when the campaign ran with Options.Observe.
	Reports []metrics.RunReport

	// Fidelity is the engine the set ran under; empty means detailed
	// (kept empty there so pre-fidelity result bytes are unchanged).
	Fidelity string
}

// setPolicyPrototypes are the three policies every Table III set is
// evaluated under. Each simulation clones its own instance (stateful
// policies must never be shared between runs).
func setPolicyPrototypes() [3]core.Policy {
	return [3]core.Policy{core.NoPartitionPolicy{}, core.EqualPolicy{}, core.NewBankAwarePolicy()}
}

// resolveSpecs looks the workload names up in the catalog.
func resolveSpecs(workloads []string) ([]trace.Spec, error) {
	specs := make([]trace.Spec, len(workloads))
	for i, n := range workloads {
		s, err := trace.SpecByName(n)
		if err != nil {
			return nil, err
		}
		specs[i] = s
	}
	return specs, nil
}

// PolicyRun bundles one simulation's result with its optional run report.
// It is the campaign's unit of distribution: all fields are exported and
// JSON-round-trip exactly (Go's encoder preserves float64 bit patterns), so
// a PolicyRun computed on a remote worker and shipped back as JSON
// assembles into the same campaign results — and so the same report bytes —
// as one computed in-process.
type PolicyRun struct {
	Result   sim.Result        `json:"result"`
	Report   metrics.RunReport `json:"report"`
	Observed bool              `json:"observed"`
}

// RunEngine executes one full simulation on sys under the protocol every
// run follows, campaign unit or single run: warm-up, stats reset, measured
// phase. A non-nil rec attaches the metrics layer and the run exports its
// report covering the measurement window; sample, when non-nil, taps the
// measured phase's epoch samples live.
func RunEngine(ctx context.Context, sys Engine, workloads []string, instructions uint64, simWorkers int, rec *metrics.Recorder, sample func(metrics.EpochSample)) (PolicyRun, error) {
	sys.SetSimWorkers(simWorkers)
	if rec != nil {
		sys.EnableMetrics(rec)
	}
	// Warm-up covers working-set build-up and the first epochs of
	// dynamic adaptation, like the paper's fast-forward + warm-up.
	if err := sys.RunContext(ctx, instructions/2); err != nil {
		return PolicyRun{}, err
	}
	sys.ResetStats()
	if rec != nil {
		// Tap only the measurement window: warm-up samples are dropped by
		// the stats reset anyway and would confuse live consumers.
		rec.OnSample = sample
	}
	if err := sys.RunContext(ctx, instructions); err != nil {
		return PolicyRun{}, err
	}
	run := PolicyRun{Result: sys.Result(workloads), Observed: rec != nil}
	if rec != nil {
		run.Report = sys.RunReport("", workloads)
	}
	return run, nil
}

// newSetResult folds the three policy results into the Figs. 8/9 ratios.
func newSetResult(set int, workloads []string, none, equal, bank sim.Result) *SetResult {
	r := &SetResult{Set: set, Workloads: workloads, None: none, Equal: equal, Bank: bank}
	r.RelMissEqual, r.RelCPIEqual = equal.PerCoreRelative(none)
	r.RelMissBank, r.RelCPIBank = bank.PerCoreRelative(none)
	r.TotalMissEqual, _ = equal.Relative(none)
	r.TotalMissBank, _ = bank.Relative(none)
	return r
}

// SetPolicies is how many policy simulations one Table III set evaluation
// comprises (the units a distributed set job shards into).
const SetPolicies = 3

// RunSetPolicyContext executes one policy simulation of a set evaluation
// on its own — the unit a distributed set campaign shards into. policy
// indexes the evaluation order (0 No-partitions, 1 Equal, 2 Bank-aware).
// The returned PolicyRun is exactly what RunSetContext computes for that
// unit.
func RunSetPolicyContext(ctx context.Context, cfg sim.Config, workloads []string, instructions uint64, policy int, opt Options) (PolicyRun, error) {
	e, err := NewSetEvaluation(cfg, workloads, instructions, 1, opt)
	if err != nil {
		return PolicyRun{}, err
	}
	return e.RunPolicy(ctx, policy)
}

// AssembleSetResult folds the three policy units (in evaluation order) into
// a SetResult, exactly as RunSetContext does in-process. Reports are
// retained only when observe is set, mirroring Options.Observe, and the
// result is stamped with the fidelity the units ran under.
func AssembleSetResult(set int, workloads []string, runs []PolicyRun, observe bool, fidelity Fidelity) (*SetResult, error) {
	if len(runs) != SetPolicies {
		return nil, fmt.Errorf("experiments: set assembly needs %d policy runs, got %d", SetPolicies, len(runs))
	}
	r := newSetResult(set, workloads, runs[0].Result, runs[1].Result, runs[2].Result)
	r.Fidelity = FidelityTag(fidelity)
	// Reports are retained only under explicit Observe: a Sample hook alone
	// attaches the recorder for its live tap but leaves the campaign result
	// — and so the emitted report bytes — exactly as an unobserved run.
	if observe {
		for _, run := range runs {
			r.Reports = append(r.Reports, run.Report)
		}
	}
	return r, nil
}

// RunSetContext simulates one workload set under the three policies, fanned
// out on the engine (one job per policy). The jobs run on one
// SetEvaluation, so each core's stream is generated once and replayed by
// all three; results are identical for any worker count.
func RunSetContext(ctx context.Context, cfg sim.Config, set int, workloads []string, instructions uint64, opt Options) (*SetResult, error) {
	e, err := NewSetEvaluation(cfg, workloads, instructions, SetPolicies, opt)
	if err != nil {
		return nil, err
	}
	runs, err := runner.Map(ctx, opt.runnerConfig(), SetPolicies, e.RunPolicy)
	if err != nil {
		return nil, err
	}
	return AssembleSetResult(set, workloads, runs, opt.Observe, opt.Fidelity)
}

// Fig8Fig9 runs all eight Table III sets and returns the per-set results
// plus the geometric means across sets (the paper's "GM" bars).
type Fig8Fig9Result struct {
	Sets []SetResult
	// GMRelMiss* and GMRelCPI* are the Fig. 8 / Fig. 9 GM bars.
	GMRelMissEqual, GMRelMissBank float64
	GMRelCPIEqual, GMRelCPIBank   float64
	// Fidelity is the engine the campaign ran under; empty means detailed.
	Fidelity string
}

// HasReports reports whether the campaign ran under Options.Observe (every
// SetResult then carries its three run reports).
func (r *Fig8Fig9Result) HasReports() bool {
	return len(r.Sets) > 0 && len(r.Sets[0].Reports) > 0
}

// CampaignUnits is the number of independent simulations the full
// Figs. 8/9 campaign flattens into (8 Table III sets x 3 policies) — the
// units a distributed experiments job shards into.
const CampaignUnits = len(TableIIISets) * SetPolicies

// AssembleFig8Fig9 folds the campaign's flattened units (in unit order)
// into the Figs. 8/9 result, exactly as RunFig8Fig9Context does
// in-process, stamped with the fidelity the units ran under.
func AssembleFig8Fig9(runs []PolicyRun, observe bool, fidelity Fidelity) (*Fig8Fig9Result, error) {
	if len(runs) != CampaignUnits {
		return nil, fmt.Errorf("experiments: campaign assembly needs %d units, got %d", CampaignUnits, len(runs))
	}
	out := &Fig8Fig9Result{Fidelity: FidelityTag(fidelity)}
	var me, mb, ce, cb []float64
	for i := range TableIIISets {
		r := newSetResult(i+1, TableIIISets[i][:],
			runs[i*SetPolicies].Result, runs[i*SetPolicies+1].Result, runs[i*SetPolicies+2].Result)
		// Like RunSetContext: only explicit Observe retains reports, so a
		// live Sample tap never changes the campaign's emitted bytes.
		if observe {
			for p := 0; p < SetPolicies; p++ {
				r.Reports = append(r.Reports, runs[i*SetPolicies+p].Report)
			}
		}
		out.Sets = append(out.Sets, *r)
		me = append(me, r.RelMissEqual)
		mb = append(mb, r.RelMissBank)
		ce = append(ce, r.RelCPIEqual)
		cb = append(cb, r.RelCPIBank)
	}
	out.GMRelMissEqual = stats.GeoMean(me)
	out.GMRelMissBank = stats.GeoMean(mb)
	out.GMRelCPIEqual = stats.GeoMean(ce)
	out.GMRelCPIBank = stats.GeoMean(cb)
	return out, nil
}

// RunFig8Fig9Context executes the detailed-simulation experiment with the
// campaign flattened to 24 jobs (8 Table III sets x 3 policies) so the
// engine keeps every worker busy instead of barriering per set. A set's
// three jobs share one SetEvaluation, opened by the first to start and
// released when the last finishes, so each set's streams are generated
// once; every job computes exactly what it would alone, so results are
// identical for any worker count. A zero instructions selects the scale's
// default budget.
func RunFig8Fig9Context(ctx context.Context, scale Scale, instructions uint64, opt Options) (*Fig8Fig9Result, error) {
	units := make([]int, CampaignUnits)
	for u := range units {
		units[u] = u
	}
	c := NewCampaignEvaluation(scale, instructions, units, opt)
	runs, err := runner.Map(ctx, opt.runnerConfig(), CampaignUnits, c.RunUnit)
	if err != nil {
		return nil, err
	}
	return AssembleFig8Fig9(runs, opt.Observe, opt.Fidelity)
}

// String renders the Fig. 8 + Fig. 9 rows.
func (r *Fig8Fig9Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-5s %-12s %-12s %-12s %-12s\n", "set",
		"relMissEqual", "relMissBank", "relCPIEqual", "relCPIBank")
	for _, s := range r.Sets {
		fmt.Fprintf(&b, "%-5d %-12.3f %-12.3f %-12.3f %-12.3f\n",
			s.Set, s.RelMissEqual, s.RelMissBank, s.RelCPIEqual, s.RelCPIBank)
	}
	fmt.Fprintf(&b, "%-5s %-12.3f %-12.3f %-12.3f %-12.3f\n", "GM",
		r.GMRelMissEqual, r.GMRelMissBank, r.GMRelCPIEqual, r.GMRelCPIBank)
	return b.String()
}
